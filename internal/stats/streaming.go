package stats

// EWMA maintains an exponentially weighted moving average. The scheduler
// uses it to track prediction rate and latency (paper §4.1), which must
// reflect recent load rather than the whole deployment history.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. Larger
// alpha weights recent observations more heavily.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha must be in (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a value into the average.
func (e *EWMA) Observe(x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average, or 0 before any observation.
func (e *EWMA) Value() float64 { return e.value }
