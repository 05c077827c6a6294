package service

import "time"

// Clock abstracts wall time so tests can drive admission and expiry
// deterministically (the differential test replays a sched.Workload on a
// fake clock). SystemClock is the production implementation.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After behaves like time.After: it returns a channel that delivers one
	// value once d has elapsed. The daemon uses it for the expiry wheel's
	// next-wakeup timer and the snapshot interval.
	After(d time.Duration) <-chan time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time                         { return time.Now() }
func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// SystemClock returns the real-time clock.
func SystemClock() Clock { return systemClock{} }
