// Package sched implements the platform's proactive-training scheduler
// (paper §4.1). Static scheduling fires at a user-defined interval; dynamic
// scheduling derives the next execution time from the last proactive
// training's duration, the prediction-query rate, and the prediction
// latency via Formula (6): T' = S · T · pr · pl.
package sched

import (
	"fmt"
	"time"
)

// Scheduler decides when the next proactive training runs.
type Scheduler interface {
	// Due reports whether a proactive training should run at time now.
	Due(now time.Time) bool
	// TrainingDone informs the scheduler that a proactive training just
	// completed, taking trained of wall-clock time, when the deployment had
	// spent served of serving time in total — its cumulative predict cost,
	// so that two calls bracket the serving load in between.
	TrainingDone(now time.Time, trained, served time.Duration)
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

// Due implements Scheduler.
func (s *Static) Due(now time.Time) bool {
	return !now.Before(s.next)
}

// TrainingDone implements Scheduler (static scheduling ignores load).
func (s *Static) TrainingDone(now time.Time, trained, served time.Duration) {
	s.next = now.Add(s.Interval)
}

// Dynamic schedules the next training T' = S·T·pr·pl seconds after the
// last one, where T is the last training duration, pr the average
// prediction-query rate (queries/second), pl the average prediction latency
// (seconds/query), and S the user's slack parameter. Slack ≥ 2 favors query
// answering; 1 ≤ S < 2 favors training (paper §4.1). The formula guarantees
// T' exceeds the time needed to serve the queries arriving during training
// (T·pr·pl) whenever S ≥ 1.
//
// pr·pl is serving time per second of wall clock, so Dynamic reads it as
// one quotient: the serving time spent since the previous training over the
// wall-clock time since then — the exact mean over that window.
type Dynamic struct {
	// Slack is the user-defined surge hint S (must be ≥ 1).
	Slack float64
	// MinInterval floors the computed interval so an idle platform (no
	// queries yet) still trains at a bounded rate.
	MinInterval time.Duration

	next time.Time
	// last and lastServed are the previous TrainingDone's clock and
	// cumulative serving time: where the next window starts.
	last       time.Time
	lastServed time.Duration
}

// NewDynamic returns a dynamic scheduler with the given slack.
func NewDynamic(slack float64, minInterval time.Duration) *Dynamic {
	if slack < 1 {
		panic(fmt.Sprintf("sched: slack must be ≥ 1, got %v", slack))
	}
	if minInterval <= 0 {
		panic(fmt.Sprintf("sched: non-positive min interval %v", minInterval))
	}
	return &Dynamic{Slack: slack, MinInterval: minInterval}
}

// Due implements Scheduler.
func (d *Dynamic) Due(now time.Time) bool { return !now.Before(d.next) }

// TrainingDone implements Scheduler: applies Formula (6) with pr·pl the
// serving load since the previous training. The first training has no
// window, so the floor applies.
func (d *Dynamic) TrainingDone(now time.Time, trained, served time.Duration) {
	var load float64 // pr·pl: seconds served per second
	if window := now.Sub(d.last); !d.last.IsZero() && window > 0 {
		load = float64(served-d.lastServed) / float64(window)
	}
	d.last, d.lastServed = now, served
	d.next = now.Add(max(time.Duration(d.Slack*float64(trained)*load), d.MinInterval))
}
