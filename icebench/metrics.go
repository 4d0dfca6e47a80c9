package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"ice/internal/dag"
	"ice/internal/sched"
	"ice/internal/trace"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Note is printed beside the value (sample counts, absences).
	Note string
	// Info marks a number printed for the reader but left out of the
	// result line.
	Info bool
}

type metrics []metric

func (ms *metrics) add(name string, v float64, unit, note string) {
	*ms = append(*ms, metric{Name: name, Value: v, Unit: unit, Note: note})
}

func (ms *metrics) info(name string, v float64, unit, note string) {
	*ms = append(*ms, metric{Name: name, Value: v, Unit: unit, Note: note + " (not in the result line)", Info: true})
}

// done returns the records of jobs that finished DONE.
func (w *window) done() []*jobRecord {
	var out []*jobRecord
	for _, r := range w.Records {
		if r.State == sched.StateDone && r.Err == "" {
			out = append(out, r)
		}
	}
	return out
}

func (w *window) wall() time.Duration { return w.End.Sub(w.Start) }

// event timing helpers over a job's server-stamped events.

func evTime(ev sched.Event) time.Time { return time.Unix(0, ev.TimeUnixNano) }

// firstEvent returns the time of the first event of type typ whose
// message matches msg ("" matches any) at or after from.
func firstEvent(r *jobRecord, typ, msg string, from time.Time) (time.Time, bool) {
	for _, ev := range r.Events {
		t := evTime(ev)
		if ev.Type == typ && (msg == "" || ev.Message == msg) && !t.Before(from) {
			return t, true
		}
	}
	return time.Time{}, false
}

// firstPrefix returns the time of the first event of type typ whose
// message starts with prefix.
func firstPrefix(r *jobRecord, typ, prefix string) (time.Time, bool) {
	for _, ev := range r.Events {
		if ev.Type == typ && strings.HasPrefix(ev.Message, prefix) {
			return evTime(ev), true
		}
	}
	return time.Time{}, false
}

// verdictLag is the job's first instrument-lease release → DONE.
func verdictLag(r *jobRecord) (float64, bool) {
	rel, ok := firstPrefix(r, "lease", "released ")
	if !ok {
		return 0, false
	}
	done, ok := firstEvent(r, "done", "", time.Time{})
	if !ok {
		return 0, false
	}
	return ms(done.Sub(rel)), true
}

// holds returns the job's lease-hold intervals on resource, paired
// acquired → released in event order.
func holds(r *jobRecord, resource string) []interval {
	var out []interval
	var open time.Time
	for _, ev := range r.Events {
		switch ev.Message {
		case "acquired " + resource:
			open = evTime(ev)
		case "released " + resource:
			if !open.IsZero() {
				out = append(out, interval{open, evTime(ev)})
				open = time.Time{}
			}
		}
	}
	return out
}

// roundResult is one round's raw end-to-end samples.
type roundResult struct {
	SetupS float64 `json:"setup_s"`
	// Per-job samples in milliseconds: admission over every admitted
	// job, the rest over DONE jobs.
	Admit      []float64 `json:"admit_ms"`
	Turnaround []float64 `json:"turnaround_ms"`
	DAG        []float64 `json:"dag_turnaround_ms"`
	Lag        []float64 `json:"verdict_lag_ms"`
	Attempted  int       `json:"attempted"`
	Done       int       `json:"done"`
	WallS      float64   `json:"wall_s"`
	CPUMS      float64   `json:"cpu_ms"`
	RSSMB      float64   `json:"rss_peak_mb"`
	Fails      []string  `json:"fails,omitempty"`
}

func summarize(win *window, setup time.Duration) roundResult {
	r := roundResult{
		SetupS:    setup.Seconds(),
		Attempted: len(win.Records),
		WallS:     win.wall().Seconds(),
		CPUMS:     ms(win.CPU),
		RSSMB:     win.RSSPeakMB,
	}
	for _, j := range win.Records {
		if !j.Admitted.IsZero() {
			r.Admit = append(r.Admit, ms(j.Admitted.Sub(j.Post)))
		}
	}
	for _, j := range win.done() {
		r.Done++
		t := ms(j.Terminal.Sub(j.Post))
		r.Turnaround = append(r.Turnaround, t)
		if j.Plan.Kind == kindDAG {
			r.DAG = append(r.DAG, t)
		}
		if l, ok := verdictLag(j); ok {
			r.Lag = append(r.Lag, l)
		}
	}
	return r
}

// endToEnd computes the metrics a user of the gateway sees from the
// rounds of a run: latency percentiles over the pooled samples,
// throughput and CPU over the summed windows, and the medians of the
// rounds' set-up times and peak RSS.
func endToEnd(rs []roundResult) metrics {
	var setup, rss, admit, turn, dagTurn, lag []float64
	var done int
	var wall, cpu float64
	for _, r := range rs {
		setup = append(setup, r.SetupS)
		rss = append(rss, r.RSSMB)
		admit = append(admit, r.Admit...)
		turn = append(turn, r.Turnaround...)
		dagTurn = append(dagTurn, r.DAG...)
		lag = append(lag, r.Lag...)
		done += r.Done
		wall += r.WallS
		cpu += r.CPUMS
	}
	var m metrics
	m.add("setup_s", median(setup), "s", noteN(len(setup), "set-ups"))
	m.add("turnaround_p50_ms", median(turn), "ms", noteN(len(turn), "jobs"))
	m.add("turnaround_p90_ms", quantile(turn, 0.9), "ms", tailNote(len(turn)))
	m.add("dag_turnaround_p50_ms", median(dagTurn), "ms", noteN(len(dagTurn), "dag jobs"))
	m.add("jobs_per_s", float64(done)/wall, "1/s", fmt.Sprintf("n=%d done in %.3fs over %d rounds", done, wall, len(rs)))
	m.add("cpu_ms_per_job", cpu/float64(done), "ms", "")
	m.add("rss_peak_mb", median(rss), "MB", "median of rounds")
	// Admission, and the verdict lag of control_plane's status-read
	// jobs, are sub-millisecond to a few milliseconds of fsync and
	// timer latency; on a shared virtual machine they move 15–70%
	// between runs, more than any bound could hold. They are printed
	// here and reported with the per-layer metrics.
	m.info("admit_p50_ms", median(admit), "ms", noteN(len(admit), "jobs"))
	m.info("admit_p90_ms", quantile(admit, 0.9), "ms", tailNote(len(admit)))
	m.info("verdict_lag_p50_ms", median(lag), "ms", noteN(len(lag), "jobs"))
	m.info("verdict_lag_p90_ms", quantile(lag, 0.9), "ms", tailNote(len(lag)))
	return m
}

func noteN(n int, what string) string { return "n=" + strconv.Itoa(n) + " " + what }

func tailNote(n int) string {
	if tailOK(n, 0.9) {
		return noteN(n, "jobs")
	}
	return noteN(n, "jobs, fewer than 10 beyond p90")
}

// kindP50 is the median of f over the window's DONE jobs of one kind
// ("" for every kind), skipping jobs f has no sample for.
func kindP50(win *window, kind string, f func(*jobRecord) (float64, bool)) (float64, int) {
	var xs []float64
	for _, r := range win.done() {
		if kind != "" && r.Plan.Kind != kind {
			continue
		}
		if v, ok := f(r); ok {
			xs = append(xs, v)
		}
	}
	return median(xs), len(xs)
}

func turnaround(r *jobRecord) (float64, bool) { return ms(r.Terminal.Sub(r.Post)), true }

// layerInputs is everything the per-layer metrics draw on.
type layerInputs struct {
	st, stT    *stack  // untraced and traced stacks
	win, winT  *window // their timed windows
	buildMS    []float64
	traces     map[string][]trace.Record // job ID → spans (traced window)
	breakdowns map[string]trace.Breakdown
	probes     metrics
	errorSpans map[string]int
}

// perLayer computes the per-layer metrics. SSE-, stats- and
// wrapper-derived numbers come from the untraced window; span-derived
// ones from the traced window.
func perLayer(in *layerInputs) metrics {
	var m metrics
	win, st := in.win, in.st
	done := win.done()
	nDone := float64(len(done))

	// End-to-end numbers too noisy to gate on a shared machine, and
	// per-kind ones for kinds some workloads lack. An absent kind reads
	// 0 with n=0 in the note, never a latency.
	var admit []float64
	for _, r := range win.Records {
		if !r.Admitted.IsZero() {
			admit = append(admit, ms(r.Admitted.Sub(r.Post)))
		}
	}
	m.add("admit_p50_ms", median(admit), "ms", noteN(len(admit), "jobs"))
	m.add("admit_p90_ms", quantile(admit, 0.9), "ms", tailNote(len(admit)))
	var lags []float64
	for _, r := range done {
		if l, ok := verdictLag(r); ok {
			lags = append(lags, l)
		}
	}
	m.add("verdict_lag_p50_ms", median(lags), "ms", noteN(len(lags), "jobs"))
	m.add("verdict_lag_p90_ms", quantile(lags, 0.9), "ms", tailNote(len(lags)))
	for _, k := range []struct {
		name, kind string
		f          func(*jobRecord) (float64, bool)
	}{
		{"cv_turnaround_p50_ms", kindCV, turnaround},
		{"scan_turnaround_p50_ms", kindScan, turnaround},
		{"cv_verdict_lag_p50_ms", kindCV, verdictLag},
		{"dag_verdict_lag_p50_ms", kindDAG, verdictLag},
	} {
		v, n := kindP50(win, k.kind, k.f)
		m.add(k.name, zeroNaN(v), "ms", noteN(n, k.kind+" jobs"))
	}

	// labreg
	m.add("labreg.build_ms", median(in.buildMS), "ms", noteN(len(in.buildMS), "builds"))

	// sched
	var queue, leaseWait, relock, echemHold, stemHold []float64
	var echemIv, stemIv []interval
	var tiles, steers, scanJobs float64
	var dagRun, dagCached, dagHits, dagLookups, dagJobs float64
	echemRes := ""
	if len(st.echemRes) > 0 {
		echemRes = st.echemRes[0]
	}
	for _, r := range done {
		if r.Job.StartedUnixNano > 0 {
			queue = append(queue, ms(time.Duration(r.Job.StartedUnixNano-r.Job.SubmittedUnixNano)))
		}
		started, _ := firstEvent(r, "started", "", time.Time{})
		if acq, ok := firstPrefix(r, "lease", "acquired "); ok {
			leaseWait = append(leaseWait, ms(acq.Sub(started)))
		}
		if r.Plan.Kind == kindCV {
			if meas, ok := firstEvent(r, "measured", "", time.Time{}); ok {
				if re, ok := firstEvent(r, "lease", "acquired "+echemRes, meas); ok {
					relock = append(relock, ms(re.Sub(meas)))
				}
			}
		}
		if h := holds(r, echemRes); len(h) > 0 {
			echemHold = append(echemHold, ms(h[0].b.Sub(h[0].a)))
			echemIv = append(echemIv, h...)
		}
		if st.stemRes != "" {
			if h := holds(r, st.stemRes); len(h) > 0 {
				stemHold = append(stemHold, ms(h[0].b.Sub(h[0].a)))
				stemIv = append(stemIv, h...)
			}
		}
		switch r.Plan.Kind {
		case kindScan:
			var res sched.ScanResult
			if json.Unmarshal(r.Job.Result, &res) == nil {
				scanJobs++
				tiles += float64(res.Tiles)
				steers += float64(res.Steers)
			}
		case kindDAG:
			var res dag.Result
			if json.Unmarshal(r.Job.Result, &res) == nil {
				dagJobs++
				dagRun += float64(res.NodesRun)
				dagCached += float64(res.NodesCached)
				for _, n := range res.Nodes {
					if cacheable(n.Type) {
						dagLookups++
						if n.Cached {
							dagHits++
						}
					}
				}
			}
		}
	}
	for _, r := range win.Records {
		if d := r.Drain; d != nil {
			echemIv = append(echemIv, interval{d.Acquired, d.Released})
		}
	}
	m.add("sched.queue_wait_ms", median(queue), "ms", noteN(len(queue), "jobs"))
	m.add("sched.wal_syncs_per_job", float64(win.WAL.Syncs)/nDone, "count", "")
	m.add("sched.wal_appends_per_job", float64(win.WAL.Appends)/nDone, "count", "")
	m.add("sched.lease_wait_ms", median(leaseWait), "ms", noteN(len(leaseWait), "jobs"))
	m.add("sched.relock_wait_ms", zeroNaN(median(relock)), "ms", noteN(len(relock), "cv jobs"))
	gaps := handoffGaps(in.winT, in.traces)
	m.add("sched.handoff_gap_ms", zeroNaN(median(gaps)), "ms", noteN(len(gaps), "hand-offs with a waiter (traced)"))
	m.add("sched.echem_busy_frac", ms(unionLength(echemIv, win.Start, win.End))/ms(win.wall()), "fraction", "")
	m.add("sched.stem_busy_frac", ms(unionLength(stemIv, win.Start, win.End))/ms(win.wall()), "fraction", "")
	m.add("sched.wal_append_us", in.probes.get("sched.wal_append_us"), "us", "probe")
	m.add("sched.lease_cycle_us", in.probes.get("sched.lease_cycle_us"), "us", "probe")

	// core/workflow
	var journalLines float64
	for _, r := range done {
		data, err := os.ReadFile(filepath.Join(st.s.Dir(), r.ID+".journal"))
		if err == nil {
			journalLines += float64(strings.Count(string(data), "\n"))
		}
	}
	m.add("journal.syncs_per_job", journalLines/nDone, "count", "")

	// pyro and datachan (wrappers)
	durs, bytes := st.meter.snapshot()
	m.add("pyro.connect_ms", median(durs["pyro.connect"]), "ms", noteN(len(durs["pyro.connect"]), "connects"))
	calls, callSelf, anaSelf, rounds, classify := spanLayers(in.traces)
	m.add("pyro.calls_per_job", mean(calls), "count", noteN(len(calls), "traced jobs"))
	m.add("pyro.call_self_ms", median(callSelf), "ms", "per job, traced")
	m.add("datachan.retrieve_ms", zeroNaN(median(durs["datachan.retrieve"])), "ms", noteN(len(durs["datachan.retrieve"]), "reads"))
	m.add("datachan.bytes_per_job", float64(bytes["datachan.retrieve"]+bytes["datachan.scan_stream"])/nDone, "bytes", "")
	m.add("datachan.scan_stream_ms", zeroNaN(median(durs["datachan.scan_stream"])), "ms", noteN(len(durs["datachan.scan_stream"]), "scan reads"))

	// instruments
	m.add("instrument.hold_ms", zeroNaN(median(echemHold)), "ms", noteN(len(echemHold), "first echem holds"))
	m.add("echem.simulate_ms", in.probes.get("echem.simulate_ms"), "ms", "probe")
	m.add("microscope.hold_ms", zeroNaN(median(stemHold)), "ms", noteN(len(stemHold), "stem holds"))
	m.add("microscope.tiles_per_job", ratio(tiles, scanJobs), "count", noteN(int(scanJobs), "scan jobs"))
	m.add("microscope.steers_per_job", ratio(steers, scanJobs), "count", "")

	// analysis/ml
	m.add("analysis.self_ms", zeroNaN(median(anaSelf)), "ms", "per job, traced")
	m.add("ml.classify_ms", zeroNaN(median(classify)), "ms", noteN(len(classify), "traced live classifications"))
	m.add("ml.classify_probe_ms", in.probes.get("ml.classify_probe_ms"), "ms", "probe on re-read files")

	// dag
	m.add("dag.nodes_run_per_job", ratio(dagRun, dagJobs), "count", noteN(int(dagJobs), "dag jobs"))
	m.add("dag.nodes_cached_per_job", ratio(dagCached, dagJobs), "count", "")
	m.add("dag.cache_hit_ratio", ratio(dagHits, dagLookups), "fraction", noteN(int(dagLookups), "cacheable nodes"))
	m.add("dag.cache_key_us", in.probes.get("dag.cache_key_us"), "us", "probe: CacheKey + Cache.Lookup")

	// campaign
	m.add("campaign.round_ms", zeroNaN(median(rounds)), "ms", noteN(len(rounds), "traced rounds"))

	// trace
	untraced, _ := kindP50(in.win, "", turnaround)
	traced, _ := kindP50(in.winT, "", turnaround)
	m.add("trace.overhead_frac", traced/untraced-1, "fraction", "traced vs untraced turnaround p50, same seed")
	var errSpans int
	for _, n := range in.errorSpans {
		errSpans += n
	}
	m.add("trace.error_spans_per_job", ratio(float64(errSpans), float64(len(in.traces))), "count", "")
	var b trace.Breakdown
	var all []trace.Record
	for _, recs := range in.traces {
		all = append(all, recs...)
	}
	for _, bd := range in.breakdowns {
		b.Wall += bd.Wall
		b.Instrument += bd.Instrument
		b.Data += bd.Data
		b.Analysis += bd.Analysis
		b.Sched += bd.Sched
		b.Control += bd.Control
		b.Idle += bd.Idle
	}
	wall := float64(b.Wall)
	for _, c := range []struct {
		name string
		d    time.Duration
	}{
		{"instrument", b.Instrument}, {"data", b.Data}, {"analysis", b.Analysis},
		{"sched", b.Sched}, {"control", b.Control}, {"idle", b.Idle},
	} {
		m.add("trace."+c.name+"_frac", ratio(float64(c.d), wall), "fraction", "critical-path share, traced")
	}
	m.add("trace.overlap_ms", ratio(ms(trace.CrossHolderOverlap(all)), float64(len(in.traces))), "ms", "per job: retrieval under another holder's instrument hold, traced")
	return m
}

func (ms metrics) get(name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

func cacheable(typ string) bool {
	switch typ {
	case dag.TypeAcquire, dag.TypeRetrieve, dag.TypeAnalyze, dag.TypeClassify:
		return true
	}
	return false
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroNaN reports an empty sample as 0: the layer did no such work.
func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// selfTimes maps each span to its duration minus the part of it its
// children cover.
func selfTimes(recs []trace.Record) map[string]time.Duration {
	children := map[string][]interval{}
	for _, r := range recs {
		if r.Parent != "" {
			children[r.Parent] = append(children[r.Parent], interval{r.Start, r.End})
		}
	}
	out := make(map[string]time.Duration, len(recs))
	for _, r := range recs {
		out[r.SpanID] = r.Duration() - unionLength(children[r.SpanID], r.Start, r.End)
	}
	return out
}

// spanLayers reads per-job layer numbers from the traced window's
// spans: pyro calls and their self time, analysis self time, campaign
// round durations and live ML classifications.
func spanLayers(traces map[string][]trace.Record) (calls, callSelf, anaSelf, rounds, classify []float64) {
	for _, recs := range traces {
		self := selfTimes(recs)
		var n int
		var cs, as time.Duration
		for _, r := range recs {
			switch {
			case strings.HasPrefix(r.Name, "call "):
				n++
				cs += self[r.SpanID]
			case strings.HasPrefix(r.Name, "campaign.round "):
				rounds = append(rounds, ms(r.Duration()))
			}
			if r.Class == trace.ClassAnalysis {
				as += self[r.SpanID]
			}
			live := r.Attrs["cached"] != "true" && r.Attrs["restored"] != "true"
			if live && (r.Name == "ml.classify" || (r.Attrs["node_type"] == dag.TypeClassify)) {
				classify = append(classify, ms(r.Duration()))
			}
		}
		calls = append(calls, float64(n))
		callSelf = append(callSelf, ms(cs))
		if as > 0 {
			anaSelf = append(anaSelf, ms(as))
		}
	}
	return
}

// handoffGaps measures, on the echem gate, the idle time between one
// holder's release and the next holder's acquire whenever the next
// holder was already waiting. Job holds come from the traced
// window's lease spans, drain holds from the harness.
func handoffGaps(win *window, traces map[string][]trace.Record) []float64 {
	type hold struct{ request, acquired, released time.Time }
	var hs []hold
	for _, r := range win.done() {
		if r.Plan.Kind == kindScan {
			continue // scan jobs hold the stem lease, not the echem gate
		}
		// Pair each lease.acquire with the lease.held that follows it.
		var acq, held []trace.Record
		for _, s := range traces[r.ID] {
			switch s.Name {
			case "lease.acquire":
				acq = append(acq, s)
			case "lease.held":
				held = append(held, s)
			}
		}
		trace.SortRecords(acq)
		trace.SortRecords(held)
		for i := 0; i < len(acq) && i < len(held); i++ {
			hs = append(hs, hold{acq[i].Start, held[i].Start, held[i].End})
		}
	}
	for _, r := range win.Records {
		if d := r.Drain; d != nil {
			hs = append(hs, hold{d.Request, d.Acquired, d.Released})
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].acquired.Before(hs[j].acquired) })
	var gaps []float64
	for i := 1; i < len(hs); i++ {
		prev, next := hs[i-1], hs[i]
		if next.request.Before(prev.released) && !next.acquired.Before(prev.released) {
			gaps = append(gaps, ms(next.acquired.Sub(prev.released)))
		}
	}
	return gaps
}
