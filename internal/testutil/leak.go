// Package testutil holds the invariant checks shared by the repo's
// end-to-end tests: the goroutine-leak bound and the exactly-once
// audit count. It is test-only — no daemon imports it — and it
// imports no scheduler package, so package-internal tests of
// internal/sched can use it without an import cycle.
package testutil

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// WaitGoroutines waits (up to wait) for the live goroutine count to
// settle back to at most baseline+slack after a scenario's teardown,
// and returns an error naming the counts if it never does.
func WaitGoroutines(baseline, slack int, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d live against baseline %d (+%d allowed)", n, baseline, slack)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// CheckGoroutines captures the live goroutine count now and registers
// a cleanup that fails t unless the count settles back within 8 of it
// inside 5s. Call it first in a test: cleanups run last-registered
// first, so this one runs after every teardown the test registers
// later (and after its deferred calls).
func CheckGoroutines(t testing.TB) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		if err := WaitGoroutines(baseline, 8, 5*time.Second); err != nil {
			t.Error(err)
		}
	})
}
