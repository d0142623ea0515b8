package sample

import "math"

// harmonic returns the t-th harmonic number H_t = 1 + 1/2 + ... + 1/t,
// computed exactly for small t and by the asymptotic expansion
// ln t + γ + 1/(2t) − 1/(12t²) beyond 10,000 terms.
func harmonic(t int) float64 {
	if t <= 0 {
		return 0
	}
	if t <= 10000 {
		var h float64
		for i := 1; i <= t; i++ {
			h += 1 / float64(i)
		}
		return h
	}
	const gamma = 0.5772156649015329 // Euler–Mascheroni constant
	ft := float64(t)
	return math.Log(ft) + gamma + 1/(2*ft) - 1/(12*ft*ft)
}

// MuUniform returns the theoretical average materialization utilization
// rate μ for uniform sampling with N total chunks and capacity for m
// materialized chunks — paper §3.2.2, Formula (4):
//
//	μ = m(1 + H_N − H_m) / N
//
// using exact harmonic numbers (the paper approximates H_t ≈ ln t).
func MuUniform(N, m int) float64 {
	if N <= 0 {
		return 1
	}
	if m >= N {
		return 1
	}
	if m <= 0 {
		return 0
	}
	return float64(m) * (1 + harmonic(N) - harmonic(m)) / float64(N)
}

// MuWindow returns the theoretical μ for window-based sampling with window
// size w — paper §3.2.2, Formula (5):
//
//	μ = 1                                           if m ≥ w
//	μ = m(1 + H_w − H_m + (N−w)/w) / N              otherwise
func MuWindow(N, m, w int) float64 {
	if N <= 0 {
		return 1
	}
	if m >= N {
		return 1
	}
	if m <= 0 {
		return 0
	}
	if w <= 0 {
		return 1 // degenerate window: nothing old is ever sampled
	}
	if m >= w {
		return 1
	}
	if w > N {
		w = N
	}
	return float64(m) * (1 + harmonic(w) - harmonic(m) + float64(N-w)/float64(w)) / float64(N)
}
