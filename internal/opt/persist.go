package opt

import (
	"fmt"

	"cdml/internal/flat"
)

// snapshot is the serialized form of an optimizer, enabling warm restarts
// of a deployment across process boundaries. All per-coordinate state vectors are persisted; the paper's warm
// starting explicitly carries "learning rate adaptation parameters (e.g.
// the average of past gradients used in Adadelta, Adam, and Rmsprop)"
// across trainings (§5.2).
type snapshot struct {
	Kind string

	LR, Decay            float64 // sgd
	Beta                 float64 // momentum
	Beta1, Beta2, Eps    float64 // adam / rmsprop (Rho stored in Beta1)
	Alpha, BetaF, L1, L2 float64 // ftrl
	T                    int64
	V1, V2               []float64 // per-coordinate state vectors
}

// The optimizer section of a snapshot payload (internal/flat, DESIGN.md
// §5n):
//
//	kind string | the kind's hyperparameters f64… | t u64 | the kind's slots, a float block each
//
// Which hyperparameters and how many slots is the kind's own list (layout),
// so a section holds nothing its kind does not use. A slot a fresh optimizer
// has not allocated yet travels as an empty block and comes back nil.

// snapshotOf captures o; the slots are o's own slices, not copies.
func snapshotOf(o Optimizer) (snapshot, error) {
	switch t := o.(type) {
	case *SGD:
		return snapshot{Kind: "sgd", LR: t.LR, Decay: t.Decay, T: t.t}, nil
	case *Momentum:
		return snapshot{Kind: "momentum", LR: t.LR, Beta: t.Beta, T: t.t, V1: t.v}, nil
	case *Adam:
		return snapshot{Kind: "adam", LR: t.LR, Beta1: t.Beta1, Beta2: t.Beta2, Eps: t.Eps, T: t.t, V1: t.m, V2: t.v}, nil
	case *RMSProp:
		return snapshot{Kind: "rmsprop", LR: t.LR, Beta1: t.Rho, Eps: t.Eps, T: t.t, V1: t.v}, nil
	case *AdaDelta:
		return snapshot{Kind: "adadelta", Beta1: t.Rho, Eps: t.Eps, T: t.t, V1: t.eg, V2: t.ex}, nil
	case *FTRL:
		return snapshot{Kind: "ftrl", Alpha: t.Alpha, BetaF: t.Beta, L1: t.L1, L2: t.L2, T: t.t, V1: t.z, V2: t.n}, nil
	default:
		return snapshot{}, fmt.Errorf("opt: cannot save unknown optimizer type %T", o)
	}
}

// fields are the hyperparameters and the slots a section carries, in order,
// as pointers into a snapshot. Arrays, not slices, so that listing them
// allocates nothing: an encode allocates its output alone.
type fields struct {
	hyper  [4]*float64
	slots  [2]*[]float64
	nh, ns int
}

// layout lists s.Kind's fields; ok is false for a kind nobody wrote.
func (s *snapshot) layout() (f fields, ok bool) {
	switch s.Kind {
	case "sgd":
		return fields{hyper: [4]*float64{&s.LR, &s.Decay}, nh: 2}, true
	case "momentum":
		return fields{hyper: [4]*float64{&s.LR, &s.Beta}, nh: 2, slots: [2]*[]float64{&s.V1}, ns: 1}, true
	case "adam":
		return fields{hyper: [4]*float64{&s.LR, &s.Beta1, &s.Beta2, &s.Eps}, nh: 4, slots: [2]*[]float64{&s.V1, &s.V2}, ns: 2}, true
	case "rmsprop":
		return fields{hyper: [4]*float64{&s.LR, &s.Beta1, &s.Eps}, nh: 3, slots: [2]*[]float64{&s.V1}, ns: 1}, true
	case "adadelta":
		return fields{hyper: [4]*float64{&s.Beta1, &s.Eps}, nh: 2, slots: [2]*[]float64{&s.V1, &s.V2}, ns: 2}, true
	case "ftrl":
		return fields{hyper: [4]*float64{&s.Alpha, &s.BetaF, &s.L1, &s.L2}, nh: 4, slots: [2]*[]float64{&s.V1, &s.V2}, ns: 2}, true
	}
	return fields{}, false
}

// Copy returns a copy of o that shares no memory with it, or nil when o is
// of a kind Encode cannot write either. The slots are copied whole into
// into's when into is an earlier copy of the same kind and size, so a warm
// copy allocates no slot.
func Copy(o, into Optimizer) Optimizer {
	s, err := snapshotOf(o)
	if err != nil {
		return nil
	}
	warm, _ := snapshotOf(into)
	f, _ := s.layout()
	reuse, _ := warm.layout()
	for i, v := range f.slots[:f.ns] {
		var dst []float64
		if warm.Kind == s.Kind {
			dst = *reuse.slots[i]
		}
		if *v != nil {
			*v = append(dst[:0], *v...)
		}
	}
	c, _ := s.build(len(s.V1))
	return c
}

// Encode returns o's section in a buffer of exactly its size. Each slot is
// scanned once for its non-zero coordinates (flat.Scan), which sizes the
// buffer, and those are visited once more to be written; nothing of o is
// retained. o is read, not copied: the caller holds whatever keeps it from
// stepping meanwhile.
func Encode(o Optimizer) ([]byte, error) {
	s, err := snapshotOf(o)
	if err != nil {
		return nil, err
	}
	return s.encode(), nil
}

func (s *snapshot) encode() []byte {
	f, _ := s.layout()
	size := flat.StringSize(s.Kind) + 8*f.nh + 8
	var blocks [len(f.slots)]flat.Block
	for i, v := range f.slots[:f.ns] {
		blocks[i] = flat.Scan(*v)
		size += blocks[i].Size()
	}
	dst := flat.AppendString(make([]byte, 0, size), s.Kind)
	for _, h := range f.hyper[:f.nh] {
		dst = flat.AppendFloat64(dst, *h)
	}
	dst = flat.AppendUint64(dst, uint64(s.T))
	for _, b := range blocks[:f.ns] {
		dst = b.AppendTo(dst)
	}
	return dst
}

// decode reads one optimizer section from r; no slot may be longer than
// max, which bounds it before it is allocated.
func decode(r *flat.Reader, max int) (snapshot, error) {
	s := snapshot{Kind: r.String()}
	f, ok := s.layout()
	if !ok && r.Err() == nil {
		return s, fmt.Errorf("opt: unknown optimizer kind %q", s.Kind)
	}
	for _, h := range f.hyper[:f.nh] {
		*h = r.Float64()
	}
	s.T = int64(r.Uint64())
	for _, v := range f.slots[:f.ns] {
		*v = r.Floats(max)
	}
	if err := r.Err(); err != nil {
		return s, fmt.Errorf("opt: decoding: %w", err)
	}
	return s, nil
}

// DecodeSection reads one optimizer section from r for a model of dim
// weights.
func DecodeSection(r *flat.Reader, dim int) (Optimizer, error) {
	s, err := decode(r, dim)
	if err != nil {
		return nil, err
	}
	return s.build(dim)
}

// build validates a decoded snapshot and constructs its optimizer. The
// optimizers index their slots by weight coordinate and allocate them
// together on the first step, so slots of any other length than dim, or one
// allocated beside one that is not, would panic there; they are refused
// here.
func (s *snapshot) build(dim int) (Optimizer, error) {
	f, ok := s.layout()
	if !ok {
		return nil, fmt.Errorf("opt: unknown optimizer kind %q", s.Kind)
	}
	for _, v := range f.slots[:f.ns] {
		if len(*v) != len(*f.slots[0]) || (len(*v) != 0 && len(*v) != dim) {
			return nil, fmt.Errorf("opt: corrupt %s snapshot: state of %d and %d coordinates for %d weights", s.Kind, len(s.V1), len(s.V2), dim)
		}
		if len(*v) == 0 {
			*v = nil
		}
	}
	if s.T < 0 {
		return nil, fmt.Errorf("opt: corrupt %s snapshot: step count %d", s.Kind, s.T)
	}
	switch s.Kind {
	case "sgd":
		return &SGD{LR: s.LR, Decay: s.Decay, t: s.T}, nil
	case "momentum":
		return &Momentum{LR: s.LR, Beta: s.Beta, v: s.V1, t: s.T}, nil
	case "adam":
		return &Adam{LR: s.LR, Beta1: s.Beta1, Beta2: s.Beta2, Eps: s.Eps, m: s.V1, v: s.V2, t: s.T}, nil
	case "rmsprop":
		return &RMSProp{LR: s.LR, Rho: s.Beta1, Eps: s.Eps, v: s.V1, t: s.T}, nil
	case "adadelta":
		return &AdaDelta{Rho: s.Beta1, Eps: s.Eps, eg: s.V1, ex: s.V2, t: s.T}, nil
	default: // "ftrl": layout knows no other kind
		return &FTRL{Alpha: s.Alpha, Beta: s.BetaF, L1: s.L1, L2: s.L2, z: s.V1, n: s.V2, t: s.T}, nil
	}
}
