// Package sched is the facility-side scheduling layer that turns the
// single-notebook ICE into a shared service: many tenants submit
// declarative experiment requests, and the gateway queues, prioritises,
// accounts for, and dispatches them onto the lab's scarce instruments.
//
// The package provides four cooperating pieces:
//
//   - a priority job queue with per-tenant fair-share weights (stride
//     scheduling), admission control and bounded backpressure — when
//     the queue is full the (K+1)th submission is rejected with a
//     retry-after hint instead of blocking the intake;
//   - an instrument lease manager handing out exclusive, TTL'd leases
//     over potentiostat channels and J-Kem units, with heartbeat
//     renewal and automatic revocation of expired leases, so a crashed
//     worker never wedges the lab;
//   - a crash-recoverable job store — an append-only JSONL WAL in the
//     style of the workflow checkpoint journal — that replays PENDING
//     and RUNNING jobs on daemon restart and resumes them through the
//     existing workflow Restore/Resume machinery;
//   - per-tenant quotas and token-bucket rate limits.
//
// cmd/icegated wraps a Scheduler in an HTTP/JSON API; tests drive it
// in-process against a netsim Deployment.
package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// State is a job's lifecycle state. The WAL records every transition;
// the latest record per job wins on replay.
type State string

// Job states. PENDING and RUNNING jobs are re-enqueued when a
// restarted daemon replays its WAL; the other states are terminal.
const (
	StatePending   State = "PENDING"
	StateRunning   State = "RUNNING"
	StateDone      State = "DONE"
	StateFailed    State = "FAILED"
	StateCancelled State = "CANCELLED"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one admitted experiment request.
type Job struct {
	// ID is the gateway-assigned identifier ("j-000042").
	ID string `json:"id"`
	// Tenant is the submitting tenant.
	Tenant string `json:"tenant"`
	// Spec is the declarative request as admitted.
	Spec JobSpec `json:"spec"`
	// TraceID names the job's distributed trace — every span the job
	// produces, across daemon restarts, lands in this trace, served at
	// GET /v1/traces/{trace_id}.
	TraceID string `json:"trace_id,omitempty"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Attempts counts executions begun (2+ after a crash resume).
	Attempts int `json:"attempts,omitempty"`
	// Resumed marks a job re-enqueued from the WAL after a daemon
	// restart found it PENDING or RUNNING — or checkpoint-requeued
	// after an instrument quarantine cut its attempt short.
	Resumed bool `json:"resumed,omitempty"`
	// Resources are the instruments assigned at dispatch (one healthy
	// instance per resource class); the runner leases exactly these,
	// which is how queued jobs route around a quarantined instrument
	// when the lab offers an equivalent.
	Resources []string `json:"resources,omitempty"`
	// Result is the runner's JSON result for DONE jobs.
	Result json.RawMessage `json:"result,omitempty"`
	// Error carries the failure message for FAILED jobs.
	Error string `json:"error,omitempty"`
	// SubmittedUnixNano/StartedUnixNano/FinishedUnixNano are wall-clock
	// transition times.
	SubmittedUnixNano int64 `json:"submitted,omitempty"`
	StartedUnixNano   int64 `json:"started,omitempty"`
	FinishedUnixNano  int64 `json:"finished,omitempty"`
}

// Event is one entry of a job's progress stream (served as SSE by the
// gateway): admission, workflow task transitions, campaign rounds,
// lease activity, completion.
type Event struct {
	// Seq is the 1-based position within the job's stream.
	Seq int `json:"seq"`
	// TimeUnixNano is the emission wall time.
	TimeUnixNano int64 `json:"t"`
	// Job is the job ID.
	Job string `json:"job"`
	// Type classifies the event: queued, started, resumed, workflow,
	// round, lease, measured, cached, steered, done, failed, cancelled.
	Type string `json:"type"`
	// Message is the human-readable detail.
	Message string `json:"message,omitempty"`
}

// Busy is the admission-control rejection: the request was well-formed
// but the facility cannot take it right now. The gateway maps it to
// HTTP 429 with a Retry-After header.
type Busy struct {
	// Reason names the exhausted resource ("queue full", "rate limit",
	// "tenant quota").
	Reason string
	// RetryAfter is the suggested back-off before resubmitting.
	RetryAfter time.Duration
}

// Error implements error.
func (b *Busy) Error() string {
	return fmt.Sprintf("sched: %s, retry after %v", b.Reason, b.RetryAfter)
}

// Unavailable is the health-aware admission rejection: the request is
// well-formed and the tenant within quota, but the facility cannot
// execute it — every capable instrument is quarantined, or the
// requested deadline cannot be met. The gateway maps it to HTTP 503
// with a Retry-After header (vs Busy's 429: Busy means "you are
// sending too much", Unavailable means "we are sick — try later or
// try another facility").
type Unavailable struct {
	// Reason names the unavailability ("sp200/ch1 quarantined",
	// "deadline 50ms below minimum 2s").
	Reason string
	// RetryAfter is the suggested back-off before resubmitting.
	RetryAfter time.Duration
	// Permanent marks rejections that resubmitting unchanged can never
	// cure here (a deadline below the facility floor): clients should
	// try another facility or give up, not sleep and retry.
	Permanent bool
}

// Error implements error.
func (u *Unavailable) Error() string {
	return fmt.Sprintf("sched: unavailable: %s, retry after %v", u.Reason, u.RetryAfter)
}

// ErrUnknownJob is returned for job IDs the scheduler has never seen.
var ErrUnknownJob = errors.New("sched: unknown job")

// ErrStopped is returned by Submit after the scheduler has stopped.
var ErrStopped = errors.New("sched: scheduler stopped")
