// Package pipeline implements the machine learning pipeline framework the
// platform deploys alongside models (paper §4.3).
//
// Every component implements the paper's two-method contract: Update folds
// a batch into the component's incremental statistics (the online statistics
// computation of §3.1) and Transform applies the component using the current
// statistics. The pipeline manager invokes Update+Transform on the online
// training path and Transform alone on the prediction and
// re-materialization paths, which guarantees train/serve consistency — the
// same transformations are applied to training data and prediction queries.
//
// Components whose statistics cannot be maintained incrementally (exact
// percentiles, PCA) are unsupported by design, mirroring the paper's
// supported-component contract.
package pipeline

import (
	"fmt"

	"cdml/internal/data"
)

// Component is one stage of a deployed pipeline.
type Component interface {
	// Name identifies the component for diagnostics.
	Name() string
	// Update folds the batch into the component's incremental statistics.
	// Stateless components return nil without inspecting the frame.
	Update(f *data.Frame) error
	// Transform applies the component, returning a new frame. The input
	// frame is never mutated.
	Transform(f *data.Frame) (*data.Frame, error)
	// Stateless reports whether the component carries no statistics.
	Stateless() bool
	// Snapshot returns a component whose Transform is safe to run
	// concurrently with further Update calls on the receiver: stateless
	// components return themselves (their Transform reads only
	// construction-time configuration), while stateful components return a
	// deep copy of their incremental statistics. The returned component is
	// immutable by contract — the serving path never calls Update on it —
	// which is what lets a published deployment snapshot answer prediction
	// queries without any lock.
	Snapshot() Component
}

// Parser converts raw records into the initial frame of a pipeline.
type Parser interface {
	// Name identifies the parser.
	Name() string
	// Parse converts raw records into a frame. Unparseable records are
	// dropped (a production stream always contains a few), so the output
	// may have fewer rows than len(records).
	Parse(records [][]byte) (*data.Frame, error)
}

// Pipeline is a parser followed by an ordered list of components. After the
// last component the frame must contain FeatureCol (a vector column) and
// LabelCol (a float column); Instances extracts them.
type Pipeline struct {
	// Parser converts raw records to the initial frame.
	Parser Parser
	// Components run in order after parsing.
	Components []Component
	// FeatureCol names the final feature-vector column (default "features").
	FeatureCol string
	// LabelCol names the label column (default "label").
	LabelCol string
}

// New returns a pipeline with default column names.
func New(p Parser, comps ...Component) *Pipeline {
	return &Pipeline{Parser: p, Components: comps, FeatureCol: "features", LabelCol: "label"}
}

// Snapshot returns a transform-only copy of the pipeline whose ProcessServe
// and Serve paths are safe to run concurrently with further online calls on
// the receiver. Stateless components are shared;
// stateful components contribute a deep copy of their statistics (see
// Component.Snapshot). The Parser is shared: parsers are stateless by
// convention (Parse builds a fresh frame per call), which keeps Snapshot
// cheap enough to run at every deployment tick.
func (p *Pipeline) Snapshot() *Pipeline {
	comps := make([]Component, len(p.Components))
	for i, c := range p.Components {
		comps[i] = c.Snapshot()
	}
	return &Pipeline{Parser: p.Parser, Components: comps, FeatureCol: p.FeatureCol, LabelCol: p.LabelCol}
}

// Parsed is a chunk after the pipeline's parser and its stateless head: the
// leading components whose Stateless() is true. Their output is the same on
// the transform-only and the online path, so one Parsed can feed both — a
// live tick parses its chunk once and hands the frame to Serve for the
// prequential score and to Online for the update. Two contracts make that
// sharing exact:
//
//   - Component.Transform never mutates its input frame, so the frame Serve
//     reads from is still the one Online starts from;
//   - a stateless component's Update is a no-op, so running the head
//     Transform-only on the online path skips nothing.
//
// A Parsed belongs to the pipeline that made it, or to one built the same
// way (its Snapshot, a fresh one from the same constructor).
type Parsed struct {
	frame *data.Frame
	next  int // index of the first component Parse did not run
}

// Parse runs the parser and the stateless head over raw records.
func (p *Pipeline) Parse(records [][]byte) (Parsed, error) {
	f, err := p.Parser.Parse(records)
	if err != nil {
		return Parsed{}, fmt.Errorf("pipeline: parser %s: %w", p.Parser.Name(), err)
	}
	next := 0
	for next < len(p.Components) && p.Components[next].Stateless() {
		next++
	}
	if f, err = transform(p.Components[:next], f); err != nil {
		return Parsed{}, err
	}
	return Parsed{frame: f, next: next}, nil
}

// Serve runs the transform-only path over the rest of the pipeline (prediction
// queries and dynamic re-materialization). The rows belong to the caller; a
// caller that hands them to Online gives them up, since Online may rewrite
// them in place. A live tick does: a served row is valid only for the
// length of its prequential score (core.Predictor).
func (p *Pipeline) Serve(in Parsed) ([]data.Instance, error) {
	f, err := transform(p.Components[in.next:], in.frame)
	if err != nil {
		return nil, err
	}
	return p.Instances(f)
}

// Online runs the online Update+Transform path over the rest of the
// pipeline: every component first updates its statistics from its input,
// then transforms it for the next component.
//
// served is nil, or what Serve returned for the same in (a live tick's serve
// pass), and Online takes it over. When the last component is a
// FeatureHasher that folds numerics into a base row and writes the feature
// column, Online does not run its Transform: it rewrites the values of the
// served rows in place (FeatureHasher.refold) — the two passes' rows differ
// only in the numerics the statistics scale — and returns served itself,
// relabelled. The instances equal Transform's bit for bit; a chunk the
// rewrite does not fit runs Transform.
func (p *Pipeline) Online(in Parsed, served []data.Instance) ([]data.Instance, error) {
	comps, f := p.Components[in.next:], in.frame
	if last := len(comps) - 1; served != nil && last >= 0 {
		if fold, ok := comps[last].(*FeatureHasher); ok && fold.Out == p.FeatureCol {
			var err error
			if f, err = updateTransform(comps[:last], f); err != nil {
				return nil, err
			}
			if f.Has(p.LabelCol) && fold.refold(f, served) {
				for i, y := range f.Float(p.LabelCol) {
					served[i].Y = y
				}
				return served, nil
			}
			comps = comps[last:]
		}
	}
	f, err := updateTransform(comps, f)
	if err != nil {
		return nil, err
	}
	return p.Instances(f)
}

// ProcessOnline parses raw records and runs the online Update+Transform
// path, returning preprocessed instances.
func (p *Pipeline) ProcessOnline(records [][]byte) ([]data.Instance, error) {
	in, err := p.Parse(records)
	if err != nil {
		return nil, err
	}
	return p.Online(in, nil)
}

// ProcessServe parses raw records and runs the transform-only path. It is
// used for prediction queries and for re-materializing evicted feature
// chunks.
func (p *Pipeline) ProcessServe(records [][]byte) ([]data.Instance, error) {
	in, err := p.Parse(records)
	if err != nil {
		return nil, err
	}
	return p.Serve(in)
}

func transform(comps []Component, f *data.Frame) (*data.Frame, error) {
	var err error
	for _, c := range comps {
		if f, err = c.Transform(f); err != nil {
			return nil, fmt.Errorf("pipeline: component %s: %w", c.Name(), err)
		}
	}
	return f, nil
}

func updateTransform(comps []Component, f *data.Frame) (*data.Frame, error) {
	var err error
	for _, c := range comps {
		if err = c.Update(f); err != nil {
			return nil, fmt.Errorf("pipeline: updating component %s: %w", c.Name(), err)
		}
		if f, err = c.Transform(f); err != nil {
			return nil, fmt.Errorf("pipeline: component %s: %w", c.Name(), err)
		}
	}
	return f, nil
}

// Instances extracts (feature, label) pairs from a fully transformed frame.
func (p *Pipeline) Instances(f *data.Frame) ([]data.Instance, error) {
	if !f.Has(p.FeatureCol) {
		return nil, fmt.Errorf("pipeline: transformed frame lacks feature column %q (have %v)", p.FeatureCol, f.Columns())
	}
	if !f.Has(p.LabelCol) {
		return nil, fmt.Errorf("pipeline: transformed frame lacks label column %q (have %v)", p.LabelCol, f.Columns())
	}
	xs := f.Vec(p.FeatureCol)
	ys := f.Float(p.LabelCol)
	out := make([]data.Instance, f.Rows())
	for i := range out {
		out[i] = data.Instance{X: xs[i], Y: ys[i]}
	}
	return out, nil
}
