package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// newClient returns an HTTP client for one traffic class: exactly one
// keep-alive connection, so the connection count of a run is the number of
// classes it drives. Proxy is nil on purpose — a proxy variable in the
// environment would otherwise route loopback requests away.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// conn is one traffic class's connection plus a reused response buffer.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn { return &conn{client: newClient()} }

func (c *conn) close() { c.client.CloseIdleConnections() }

func newConns(n int) []*conn {
	out := make([]*conn, n)
	for i := range out {
		out[i] = newConn()
	}
	return out
}

func closeConns(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

// post sends body and returns the status and the whole response body; the
// returned bytes are valid until the next call.
func (c *conn) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.client.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) get(url string) (int, []byte, error) {
	resp, err := c.client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// opStats is the tally of one operation kind, over one timed window or —
// after add — over all the windows of a run. Every operation sent counts as
// attempted, warm-up included; lat holds the wire latencies of the
// successful ones inside a timed window, and rates each window's successful
// completions per second.
type opStats struct {
	attempted, failed int
	lat               latencies
	rates             []float64
	firstErr          error
}

// add folds another window's tally into o.
func (o *opStats) add(w *opStats) {
	o.attempted += w.attempted
	o.failed += w.failed
	o.lat = append(o.lat, w.lat...)
	o.rates = append(o.rates, w.rates...)
	if o.firstErr == nil {
		o.firstErr = w.firstErr
	}
}

func (o *opStats) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

func (o *opStats) succeeded() int { return o.attempted - o.failed }

// perSecond is the throughput of successful in-window operations: the
// median window of the run, so a stall of the machine that covers less than
// half the measured time does not move the figure the way it would move a
// mean.
func (o *opStats) perSecond() float64 { return median(o.rates) }

// maxConsecutiveFailures stops a loop that has plainly lost its server, so
// a dead run ends in seconds instead of spinning until its window closes.
const maxConsecutiveFailures = 50

// phaseClock splits a phase into untimed warm-up traffic and the timed
// window that follows it.
type phaseClock struct {
	start, measureFrom, end time.Time
}

func newPhaseClock(warm, window time.Duration) phaseClock {
	now := time.Now()
	return phaseClock{start: now, measureFrom: now.Add(warm), end: now.Add(warm + window)}
}

// predictResponse is the part of the predict envelope the checks read.
type predictResponse struct {
	Predictions []float64 `json:"predictions"`
	Served      *int      `json:"served"`
	Dropped     *int      `json:"dropped"`
}

// predictChecker validates predict answers. With frozen set (no writer is
// running, so the model cannot change) it remembers the first answer to
// each distinct body and requires every later one to match it bit for bit.
type predictChecker struct {
	rows   int  // records per request body
	binary bool // predictions must be ±1 (the URL classifier)
	frozen bool

	mu    sync.Mutex // the connections of a class share one checker
	first [][]byte   // per body index: the remembered answer, minus its latency field
}

func newPredictChecker(pipeline string, rows, bodies int, frozen bool) *predictChecker {
	return &predictChecker{rows: rows, binary: pipeline == "url", frozen: frozen, first: make([][]byte, bodies)}
}

// latencyField starts the one part of a predict answer that legitimately
// differs between two answers to the same body.
var latencyField = []byte(`,"latency_ms":`)

// check validates one 200 answer to body index i.
func (p *predictChecker) check(i int, resp []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var stable []byte
	if p.frozen {
		cut := bytes.LastIndex(resp, latencyField)
		if cut < 0 {
			return fmt.Errorf("predict answer without a latency_ms field: %.120q", resp)
		}
		stable = resp[:cut]
		if p.first[i] != nil {
			// Go's JSON encoder writes the shortest text that round-trips
			// a float64, so equal text is equal bits and the full decode
			// below is needed once per body, not once per request.
			if !bytes.Equal(stable, p.first[i]) {
				return fmt.Errorf("answer to body %d changed while the model was frozen:\n first %.200q\n now   %.200q", i, p.first[i], stable)
			}
			return nil
		}
	}
	var pr predictResponse
	if err := json.Unmarshal(resp, &pr); err != nil {
		return fmt.Errorf("decoding predict answer: %w", err)
	}
	if pr.Served == nil || pr.Dropped == nil {
		return fmt.Errorf("predict answer lacks served/dropped: %.120q", resp)
	}
	if *pr.Served+*pr.Dropped != p.rows {
		return fmt.Errorf("served %d + dropped %d != %d records sent", *pr.Served, *pr.Dropped, p.rows)
	}
	if len(pr.Predictions) != *pr.Served {
		return fmt.Errorf("%d predictions for served=%d", len(pr.Predictions), *pr.Served)
	}
	for _, v := range pr.Predictions {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite prediction %v", v)
		}
		//lint:allow floateq: the URL predictor answers exactly +1 or -1, anything else is a wrong answer
		if p.binary && v != 1 && v != -1 {
			return fmt.Errorf("URL prediction %v is not ±1", v)
		}
	}
	if p.frozen {
		p.first[i] = append([]byte(nil), stable...)
	}
	return nil
}

// closedLoop drives one closed-loop traffic class over conns connections:
// each connection sends its next request when its previous answer has been
// read and checked. op performs request i of connection worker and returns
// its wire time. Two connections, not one, is deliberate on a two-core box:
// a single ping-pong leaves both cores idle half the time, and what is then
// measured is how long the hypervisor takes to wake an idle core, which
// wanders by ±20 % from one ten-second stretch to the next.
func closedLoop(ctx context.Context, srv *server, conns []*conn, clk phaseClock, op func(c *conn, worker, i int) (time.Duration, error)) *opStats {
	parts := make([]*opStats, len(conns))
	completed := make([]int, len(conns)) // answers read inside the timed window
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &opStats{}
			parts[w] = st
			streak := 0
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(clk.end) || ctx.Err() != nil {
					break
				}
				st.attempted++
				wire, err := op(c, w, i)
				if err != nil {
					st.fail(err)
					if streak++; streak >= maxConsecutiveFailures || srv.alive() != nil {
						break
					}
					continue
				}
				streak = 0
				if !t0.Before(clk.measureFrom) {
					st.lat = append(st.lat, wire)
				}
				if done := t0.Add(wire); !done.Before(clk.measureFrom) && done.Before(clk.end) {
					completed[w]++
				}
			}
		}()
	}
	wg.Wait()
	total, n := &opStats{}, 0
	for w, st := range parts {
		total.add(st)
		n += completed[w]
	}
	total.rates = []float64{float64(n) / clk.end.Sub(clk.measureFrom).Seconds()}
	return total
}

// runPredict is the closed-loop predict class.
func runPredict(ctx context.Context, srv *server, conns []*conn, bodies [][]byte, chk *predictChecker, clk phaseClock) *opStats {
	url := srv.base + "/v1/deployments/default/predict"
	return closedLoop(ctx, srv, conns, clk, func(c *conn, worker, i int) (time.Duration, error) {
		// Connections walk the bodies from different offsets, so at any
		// moment they ask about different records.
		b := (i + worker*len(bodies)/len(conns)) % len(bodies)
		t0 := time.Now()
		code, resp, err := c.post(url, bodies[b])
		wire := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if code != http.StatusOK {
			return 0, fmt.Errorf("predict: status %d: %.200s", code, resp)
		}
		return wire, chk.check(b, resp)
	})
}

// trainResponse is the /train envelope.
type trainResponse struct {
	Ingested *int `json:"ingested"`
}

// runTrain is the closed-loop synchronous-training class: each 200 is one
// whole deployment tick on one 80-row chunk, cycling through chunks. It
// returns the labels of the chunks the server accepted, for the
// trivial-predictor comparison.
func runTrain(ctx context.Context, srv *server, conns []*conn, chunks []trainChunk, clk phaseClock) (*opStats, []float64) {
	url := srv.base + "/v1/deployments/default/train"
	labels := make([][]float64, len(conns))
	st := closedLoop(ctx, srv, conns, clk, func(c *conn, worker, i int) (time.Duration, error) {
		ch := chunks[(i*len(conns)+worker)%len(chunks)]
		t0 := time.Now()
		code, resp, err := c.post(url, ch.body)
		wire := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if code != http.StatusOK {
			return 0, fmt.Errorf("train: status %d: %.200s", code, resp)
		}
		var tr trainResponse
		if err := json.Unmarshal(resp, &tr); err != nil || tr.Ingested == nil || *tr.Ingested != chunkRows {
			return 0, fmt.Errorf("train: answer does not acknowledge %d records: %.120q", chunkRows, resp)
		}
		labels[worker] = append(labels[worker], ch.labels...)
		return wire, nil
	})
	var all []float64
	for _, l := range labels {
		all = append(all, l...)
	}
	return st, all
}

// pacer is an open-loop schedule: operation i is due at start + i/rate,
// whatever happened to the operations before it.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func (p pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// wait sleeps until operation i is due and returns the due time and how late
// the generator is (0 when it slept). now and sleep are parameters so the
// accounting can be tested without a clock.
func (p pacer) wait(i int, now func() time.Time, sleep func(time.Duration)) (due time.Time, late time.Duration) {
	due = p.due(i)
	if d := due.Sub(now()); d > 0 {
		sleep(d)
	}
	if l := now().Sub(due); l > 0 {
		late = l
	}
	return due, late
}

// ingestResponse is the 202 envelope of the async ingest route.
type ingestResponse struct {
	Queued     *int   `json:"queued"`
	QueueDepth *int64 `json:"queue_depth"`
}

// ingestStats is what the open-loop class reports on top of opStats.
type ingestStats struct {
	opStats
	late        latencies // generator lateness per in-window send
	maxDepth    int64     // highest queue_depth any 202 reported
	lastAck     time.Time // when the last 202 was read
	ackedLabels []float64
}

// add folds another window's tally into s.
func (s *ingestStats) add(w *ingestStats) {
	s.opStats.add(&w.opStats)
	s.late = append(s.late, w.late...)
	s.maxDepth = max(s.maxDepth, w.maxDepth)
	s.lastAck = w.lastAck
	s.ackedLabels = append(s.ackedLabels, w.ackedLabels...)
}

// runIngest is the open-loop paced async-ingest class: chunk i is due at
// start + i/rate on one connection, and its latency runs from that due time
// to its 202, so a stall is charged to every chunk it delays.
func runIngest(ctx context.Context, srv *server, c *conn, chunks []trainChunk, rate float64, clk phaseClock) (*ingestStats, error) {
	url := srv.base + "/v1/deployments/default/ingest"
	st := &ingestStats{}
	p := pacer{start: clk.start, interval: time.Duration(float64(time.Second) / rate)}
	streak := 0
	for i := 0; ; i++ {
		if !p.due(i).Before(clk.end) || ctx.Err() != nil {
			break
		}
		if i >= len(chunks) {
			return st, fmt.Errorf("ingest window needs more than the %d chunks prepared", len(chunks))
		}
		due, late := p.wait(i, time.Now, time.Sleep)
		st.attempted++
		code, resp, err := c.post(url, chunks[i].body)
		t1 := time.Now()
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("ingest: status %d: %.200s", code, resp)
		}
		var ir ingestResponse
		if err == nil {
			if jerr := json.Unmarshal(resp, &ir); jerr != nil || ir.Queued == nil || ir.QueueDepth == nil || *ir.Queued != chunkRows {
				err = fmt.Errorf("ingest: answer does not acknowledge %d records: %.120q", chunkRows, resp)
			}
		}
		if err != nil {
			st.fail(err)
			if streak++; streak >= maxConsecutiveFailures || srv.alive() != nil {
				break
			}
			continue
		}
		streak = 0
		st.lastAck = t1
		st.maxDepth = max(st.maxDepth, *ir.QueueDepth)
		st.ackedLabels = append(st.ackedLabels, chunks[i].labels...)
		if !due.Before(clk.measureFrom) {
			st.lat = append(st.lat, t1.Sub(due))
			st.late = append(st.late, late)
		}
	}
	return st, nil
}

// statusView is the part of GET …/status the run reads.
type statusView struct {
	SnapshotVersion  uint64 `json:"snapshot_version"`
	IngestQueueDepth int64  `json:"ingest_queue_depth"`
	IngestAsyncErrs  int64  `json:"ingest_async_errors"`
	IngestLastError  string `json:"ingest_last_error"`
}

func getStatus(srv *server, c *conn) (v statusView, err error) {
	return v, getJSON(srv, c, "/v1/deployments/default/status", &v)
}

// getJSON decodes the 200 answer of a GET into v.
func getJSON(srv *server, c *conn, path string, v any) error {
	code, body, err := c.get(srv.base + path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", path, code, body)
	}
	return json.Unmarshal(body, v)
}

// statsView is the part of GET …/stats the run reads.
type statsView struct {
	CumulativeError float64 `json:"cumulative_error"`
	Evaluated       int64   `json:"evaluated"`
}

func getStats(srv *server, c *conn) (v statsView, err error) {
	return v, getJSON(srv, c, "/v1/deployments/default/stats", &v)
}

func getMetrics(srv *server, c *conn) (promSeries, error) {
	code, body, err := c.get(srv.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics: %d", code)
	}
	return parseProm(bytes.NewReader(body))
}

// drainPoll is how often the queue is polled while it empties.
const drainPoll = 2 * time.Millisecond

// waitDrained polls status until the ingest queue is empty and the snapshot
// version has reached want (every accepted chunk trained and published).
func waitDrained(srv *server, c *conn, want uint64, limit time.Duration) (statusView, error) {
	deadline := time.Now().Add(limit)
	for {
		v, err := getStatus(srv, c)
		if err != nil {
			return v, err
		}
		if v.IngestAsyncErrs > 0 {
			return v, fmt.Errorf("server reports %d failed async ticks: %s", v.IngestAsyncErrs, v.IngestLastError)
		}
		if v.IngestQueueDepth == 0 && v.SnapshotVersion >= want {
			return v, nil
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("queue not drained after %v: depth %d, version %d, want %d", limit, v.IngestQueueDepth, v.SnapshotVersion, want)
		}
		if err := srv.alive(); err != nil {
			return v, err
		}
		time.Sleep(drainPoll)
	}
}
