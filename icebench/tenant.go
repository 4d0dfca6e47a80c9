package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"

	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/robot"
	"ice/internal/sched"
	"ice/internal/trace"
)

// jobRecord is what one tenant saw of one job, all on the client's
// clock except the server-stamped events.
type jobRecord struct {
	Tenant int
	Plan   plan
	ID     string
	Trace  string
	// Post is taken before the POST is written, Admitted when its 202
	// has been read, Terminal when the terminal SSE event arrived.
	Post, Admitted, Terminal time.Time
	State                    sched.State
	Events                   []sched.Event
	Err                      string
	// Job is the final job as GET /v1/jobs/{id} served it after the
	// timed window.
	Job sched.Job
	// Drain is the harness drain that followed the job (nil if none).
	Drain *drainRecord
}

// drainRecord is one harness drain of the shared cell: when it asked
// for the echem gate, got it, and gave it back.
type drainRecord struct {
	Request, Acquired, Released time.Time
}

// jobTimeout bounds one job's submit and event stream; healthy jobs
// finish in about a second.
const jobTimeout = 60 * time.Second

// tenant is one closed-loop client: it submits its next job only when
// the previous one reached a terminal state (and, for jobs that fill
// the cell, after draining it). It holds one keep-alive connection to
// the gateway and one control session for the drains.
type tenant struct {
	idx    int
	name   string
	st     *stack
	tr     *http.Transport
	client *http.Client
	// lab is the harness's own control session, with the mount that
	// came with it; both stay open for the tenant's lifetime.
	lab      *core.LabSession
	labMount datachan.Share
}

func newTenant(st *stack, idx int, name string) (*tenant, error) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	// The timeout bounds a whole request, event stream included: a job
	// stuck far beyond any healthy turnaround fails the run instead of
	// hanging it.
	client := &http.Client{Transport: tr, Timeout: jobTimeout}
	t := &tenant{idx: idx, name: name, st: st, tr: tr, client: client}
	sess, mount, err := st.fac.ConnectLab()
	if err != nil {
		return nil, fmt.Errorf("tenant %s: harness session: %w", name, err)
	}
	t.lab, t.labMount = sess, mount
	return t, nil
}

func (t *tenant) close() {
	t.tr.CloseIdleConnections()
	t.lab.Close()
	t.labMount.Close()
}

// run submits p and follows its event stream to the terminal event.
func (t *tenant) run(p plan) *jobRecord {
	rec := &jobRecord{Tenant: t.idx, Plan: p}
	root := t.st.bench.StartTrace("", "bench.job "+p.Kind, "")
	defer root.End()
	body, err := json.Marshal(p.Spec)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}

	sub := startChild(root, "bench.submit", trace.ClassControl)
	rec.Post = time.Now()
	resp, err := t.client.Post(t.st.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		sub.EndErr(err)
		rec.Err = err.Error()
		return rec
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.Admitted = time.Now()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(reply)))
	}
	var job sched.Job
	if err == nil {
		err = json.Unmarshal(reply, &job)
	}
	sub.EndErr(err)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.ID, rec.Trace = job.ID, job.TraceID
	root.SetAttr("job", job.ID)

	wait := startChild(root, "bench.sse_wait", trace.ClassSched)
	err = t.follow(rec)
	wait.EndErr(err)
	if err != nil {
		rec.Err = err.Error()
	}
	// Drain after every job that fills and ended, however it ended, so
	// one failure does not overflow the cell for every job after it.
	if p.Fills && rec.State != "" {
		d := startChild(root, "bench.drain", trace.ClassInstrument)
		dr, err := t.drain(p.Kind == kindCampaign)
		rec.Drain = &dr
		d.EndErr(err)
		if err != nil {
			rec.Err = "drain: " + err.Error()
		}
	}
	return rec
}

// follow reads the job's server-sent events until the stream ends,
// stamping the arrival of the terminal event. It reads to EOF so the
// connection goes back to the pool for the next submit.
func (t *tenant) follow(rec *jobRecord) error {
	resp, err := t.client.Get(t.st.base + "/v1/jobs/" + rec.ID + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	var evType, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			evType = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && evType != "":
			switch evType {
			case "done", "failed", "cancelled":
				rec.Terminal = time.Now()
				rec.State = map[string]sched.State{
					"done": sched.StateDone, "failed": sched.StateFailed, "cancelled": sched.StateCancelled,
				}[evType]
			}
			if evType != "end" {
				var ev sched.Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return fmt.Errorf("event %s: %w", evType, err)
				}
				rec.Events = append(rec.Events, ev)
			}
			evType, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if rec.Terminal.IsZero() {
		return fmt.Errorf("event stream of %s ended without a terminal event", rec.ID)
	}
	return nil
}

// drain empties the shared cell over the control channel while holding
// the echem gate, so it never runs inside another job's instrument
// phase. Without it the fourth 6 mL fill overflows the 20 mL cell and
// every later fill fails on the still-loaded syringe. After a campaign
// it also docks and charges the robot, whose battery would otherwise
// run flat after a few campaigns' transfers.
func (t *tenant) drain(recharge bool) (drainRecord, error) {
	g := &sched.InstrumentGate{M: t.st.s.Leases(), Resources: t.st.echemRes, Holder: "bench-drain-" + t.name}
	var d drainRecord
	d.Request = time.Now()
	g.Lock()
	d.Acquired = time.Now()
	_, err := t.lab.DrainCell()
	if err == nil && recharge {
		if _, err = t.lab.RobotMoveTo(string(robot.Dock)); err == nil {
			_, err = t.lab.RobotCharge()
		}
	}
	g.Unlock()
	d.Released = time.Now()
	return d, err
}

func startChild(parent *trace.Span, name, class string) *trace.Span {
	_, s := trace.Start(trace.ContextWithSpan(context.Background(), parent), name, class)
	return s
}

// window is one timed run of a workload on a stack.
type window struct {
	Start, End time.Time
	Records    []*jobRecord
	WAL        sched.WALStats
	CPU        time.Duration
	RSSPeakMB  float64
}

// runWindow drives every tenant of w in a closed loop for dur and
// waits for each tenant's in-flight job.
func runWindow(st *stack, w *workload, seed int64, dur time.Duration) (*window, error) {
	tenants := make([]*tenant, len(w.Tenants))
	for i, name := range w.Tenants {
		t, err := newTenant(st, i, name)
		if err != nil {
			for _, prev := range tenants[:i] {
				prev.close()
			}
			return nil, err
		}
		tenants[i] = t
	}
	defer func() {
		for _, t := range tenants {
			t.close()
		}
	}()

	walBefore := st.s.WAL().Stats()
	cpuBefore := cpuTime()
	win := &window{Start: time.Now()}
	deadline := win.Start.Add(dur)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, t := range tenants {
		wg.Add(1)
		go func(t *tenant) {
			defer wg.Done()
			stream := newJobStream(w, seed, t.idx)
			for time.Now().Before(deadline) {
				rec := t.run(stream.next())
				mu.Lock()
				win.Records = append(win.Records, rec)
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	win.CPU = cpuTime() - cpuBefore
	win.RSSPeakMB = rssPeakMB()
	after := st.s.WAL().Stats()
	win.WAL = sched.WALStats{Appends: after.Appends - walBefore.Appends, Syncs: after.Syncs - walBefore.Syncs}
	win.End = win.Start
	for _, r := range win.Records {
		if r.Terminal.After(win.End) {
			win.End = r.Terminal
		}
	}
	// Final job states, read over the public API after the window.
	for _, r := range win.Records {
		if r.ID == "" {
			continue
		}
		job, err := getJob(tenants[r.Tenant].client, st.base, r.ID)
		if err != nil {
			return nil, err
		}
		r.Job = job
	}
	return win, nil
}

// warmup runs each of w's warm-up jobs once through tenant 0: the DAG
// classifier trains from its seed and the stations get dialed.
func warmup(st *stack, w *workload) ([]*jobRecord, error) {
	t, err := newTenant(st, 0, w.Tenants[0])
	if err != nil {
		return nil, err
	}
	defer t.close()
	var recs []*jobRecord
	for i, p := range w.Warmup {
		p.Spec.Tenant = w.Tenants[0]
		if p.Kind == kindScan {
			p.Spec.Tenant = w.Tenants[len(w.Tenants)-1]
		}
		rec := t.run(p)
		if rec.ID != "" {
			if rec.Job, err = getJob(t.client, st.base, rec.ID); err != nil {
				return nil, err
			}
		}
		if rec.Err != "" || rec.State != sched.StateDone {
			return nil, fmt.Errorf("warm-up job %d (%s) ended %s: %s %s", i, p.Kind, rec.State, rec.Err, rec.Job.Error)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func getJob(c *http.Client, base, id string) (sched.Job, error) {
	var job sched.Job
	resp, err := c.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return job, fmt.Errorf("get job %s: %s", id, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	return job, err
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set (ru_maxrss, KiB on
// Linux) in MB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
