// Package sched implements the platform's proactive-training scheduler
// (paper §4.1). Static scheduling fires at a user-defined interval; dynamic
// scheduling derives the next execution time from the last proactive
// training's duration, the prediction-query rate, and the prediction
// latency via Formula (6): T' = S · T · pr · pl.
package sched

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"cdml/internal/stats"
)

// Scheduler decides when the next proactive training runs.
type Scheduler interface {
	// Name identifies the scheduling policy ("static" or "dynamic").
	Name() string
	// Due reports whether a proactive training should run at time now.
	Due(now time.Time) bool
	// TrainingDone informs the scheduler that a proactive training just
	// completed, taking d of wall-clock time.
	TrainingDone(now time.Time, d time.Duration)
	// ObserveQueries feeds a batch of n served queries that together took
	// total of serving time, ending at now. The platform serves whole
	// chunks, so this is the natural reporting grain.
	ObserveQueries(now time.Time, n int, total time.Duration)
}

// LoadStats is implemented by schedulers that expose their observed serving
// load — the inputs of Formula (6). Readers may call these from any
// goroutine (e.g. a metrics scrape) while the deployment loop keeps
// observing; implementations must make the reads race-free.
type LoadStats interface {
	// QueryRate returns the observed prediction-query rate pr
	// (queries/second).
	QueryRate() float64
	// QueryLatency returns the observed prediction latency pl
	// (seconds/query).
	QueryLatency() float64
}

// Static fires every Interval, the simple mechanism for "update every
// minute" use cases.
type Static struct {
	// Interval separates consecutive proactive trainings.
	Interval time.Duration

	next time.Time
}

// NewStatic returns a static scheduler. The first training is due
// immediately.
func NewStatic(interval time.Duration) *Static {
	if interval <= 0 {
		panic(fmt.Sprintf("sched: non-positive interval %v", interval))
	}
	return &Static{Interval: interval}
}

// Name implements Scheduler.
func (s *Static) Name() string { return "static" }

// Due implements Scheduler.
func (s *Static) Due(now time.Time) bool {
	return !now.Before(s.next)
}

// TrainingDone implements Scheduler.
func (s *Static) TrainingDone(now time.Time, d time.Duration) {
	s.next = now.Add(s.Interval)
}

// ObserveQueries implements Scheduler (static scheduling ignores load).
func (s *Static) ObserveQueries(now time.Time, n int, total time.Duration) {}

// Dynamic schedules the next training T' = S·T·pr·pl seconds after the
// last one, where T is the last training duration, pr the average
// prediction-query rate (queries/second), pl the average prediction latency
// (seconds/query), and S the user's slack parameter. Slack ≥ 2 favors query
// answering; 1 ≤ S < 2 favors training (paper §4.1). The formula guarantees
// T' exceeds the time needed to serve the queries arriving during training
// (T·pr·pl) whenever S ≥ 1.
type Dynamic struct {
	// Slack is the user-defined surge hint S (must be ≥ 1).
	Slack float64
	// MinInterval floors the computed interval so an idle platform (no
	// queries yet) still trains at a bounded rate.
	MinInterval time.Duration

	next      time.Time
	rate      *stats.EWMA // queries per second
	latency   *stats.EWMA // seconds per query
	lastQuery time.Time

	// rateBits/latBits mirror the EWMA values as atomically readable
	// float64 bits so QueryRate/QueryLatency can be scraped from another
	// goroutine without taking the deployment lock.
	rateBits atomic.Uint64
	latBits  atomic.Uint64
}

// NewDynamic returns a dynamic scheduler with the given slack.
func NewDynamic(slack float64, minInterval time.Duration) *Dynamic {
	if slack < 1 {
		panic(fmt.Sprintf("sched: slack must be ≥ 1, got %v", slack))
	}
	if minInterval <= 0 {
		panic(fmt.Sprintf("sched: non-positive min interval %v", minInterval))
	}
	return &Dynamic{
		Slack:       slack,
		MinInterval: minInterval,
		rate:        stats.NewEWMA(0.2),
		latency:     stats.NewEWMA(0.2),
	}
}

// Name implements Scheduler.
func (d *Dynamic) Name() string { return "dynamic" }

// Due implements Scheduler.
func (d *Dynamic) Due(now time.Time) bool { return !now.Before(d.next) }

// TrainingDone implements Scheduler: applies Formula (6).
func (d *Dynamic) TrainingDone(now time.Time, dur time.Duration) {
	d.next = now.Add(d.nextInterval(dur.Seconds()))
}

// ObserveQueries implements Scheduler: updates pl with the batch's average
// per-query latency and pr with n over the time since the previous batch.
func (d *Dynamic) ObserveQueries(now time.Time, n int, total time.Duration) {
	if n <= 0 {
		return
	}
	d.latency.Observe(total.Seconds() / float64(n))
	if !d.lastQuery.IsZero() {
		gap := now.Sub(d.lastQuery).Seconds()
		if gap > 0 {
			d.rate.Observe(float64(n) / gap)
		}
	}
	d.lastQuery = now
	d.publishLoad()
}

// publishLoad snapshots the EWMA values into the atomic mirrors.
func (d *Dynamic) publishLoad() {
	d.rateBits.Store(math.Float64bits(d.rate.Value()))
	d.latBits.Store(math.Float64bits(d.latency.Value()))
}

// QueryRate implements LoadStats: the observed query rate pr
// (queries/second), readable from any goroutine.
func (d *Dynamic) QueryRate() float64 {
	return math.Float64frombits(d.rateBits.Load())
}

// QueryLatency implements LoadStats: the observed prediction latency pl
// (seconds/query), readable from any goroutine.
func (d *Dynamic) QueryLatency() float64 {
	return math.Float64frombits(d.latBits.Load())
}

// nextInterval exposes the Formula (6) computation for a hypothetical
// training duration, for tests and capacity planning.
func (d *Dynamic) nextInterval(trainingSeconds float64) time.Duration {
	iv := time.Duration(d.Slack * trainingSeconds * d.rate.Value() * d.latency.Value() * float64(time.Second))
	if iv < d.MinInterval {
		return d.MinInterval
	}
	return iv
}
