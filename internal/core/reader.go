package core

// This file is the lock-free read path of a live deployment. Predict and
// Stats answer from the immutable published Snapshot (see snapshot.go) and
// acquire no mutex shared with Ingest: the platform keeps "continuously
// answering prediction queries" (paper §3, Figure 1) at full speed while a
// proactive training or a multi-second full retraining runs on the writer
// side.

import (
	"fmt"
	"time"

	"cdml/internal/eval"
)

// Predict answers a batch of prediction queries with the published pipeline
// and model snapshot: the records run through the transform-only path
// (guaranteeing train/serve consistency) and the snapshot's model scores
// each resulting instance. Records the pipeline drops (e.g. anomalies) are
// absent from the output, so the result may be shorter than the input.
//
// Predict is lock-free with respect to Ingest: it pins the current
// snapshot (an atomic pointer read, a reader count on its weight buffer, a
// second read to confirm — see pin) and works on state nothing writes while
// the pin is held, so a prediction never stalls behind a training tick.
// Safe for concurrent use with Ingest, Stats, and other Predicts.
//
//cdml:hotpath
func (d *Deployer) Predict(records [][]byte) ([]float64, error) {
	out, _, err := d.predict(records)
	return out, err
}

// predict is Predict that also returns the version of the snapshot that
// answered, so a test can check every answer against a sequential run at
// that version.
//
//cdml:hotpath
func (d *Deployer) predict(records [][]byte) ([]float64, uint64, error) {
	snap := d.pin()
	start := time.Now() //lint:allow hotpath: the serve-latency measurement is the deliverable — one timestamp per batch, not per record
	ins, err := snap.pipe.ProcessServe(records)
	if err != nil {
		unpin(snap)
		return nil, 0, fmt.Errorf("core: predicting: %w", err) //lint:allow hotpath: cold failure branch; the happy path never reaches it
	}
	out := make([]float64, len(ins))
	for i, in := range ins {
		out[i] = d.cfg.Predict(snap.mdl, in.X)
	}
	unpin(snap)
	d.cost.Add(eval.CatPredict, time.Since(start))
	d.obs.predictLatency.Observe(time.Since(start))
	d.obs.predictQueries.Add(int64(len(ins)))
	return out, snap.version, nil
}

// Stats returns the deployment's accumulated result as of the most
// recently published snapshot. Like Predict it is a lock-free read: the
// answer was precomputed by the writer at publish time, and it reads no
// weights, so it takes no pin.
//
//cdml:hotpath
func (d *Deployer) Stats() Result {
	return d.current().stats
}
