// Icebench is the ICE gateway benchmark. It brings a labreg facility
// up in-process the way `icegated -lab` does, serves the gateway over
// loopback HTTP, and drives closed-loop tenants that submit jobs and
// follow each job's event stream to its terminal event. It prints
// every metric by name with its unit, checks the outputs, and ends
// with one JSON line.
//
//	bash icebench/run.sh --workload echem_paced --seed 1 --seconds 30 --trace 0
//
// Run it from the repository root: the facilities and the DAG example
// are read from examples/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ice/internal/sched"
	"ice/internal/trace"
)

// rounds is how many fresh processes a --trace 0 run splits its
// window across. Each round sets up its own stack (so every set-up
// trains the DAG classifier and dials the stations anew) and times
// seconds/rounds of load; latencies are pooled across rounds. Short
// rounds keep the gateway's in-memory job history, and the garbage
// collector's work over it, the same size on every run.
const rounds = 4

// errCheck marks a run whose outputs failed a check; its result line
// is still printed, with correct=false.
var errCheck = errors.New("output checks failed")

func main() {
	name := flag.String("workload", "", "echem_paced, control_plane or mixed_facility")
	seed := flag.Int64("seed", 1, "workload seed: the tenants' job sequences derive from it")
	seconds := flag.Int("seconds", 30, "timed window length")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from an untraced and a traced window of half the length each")
	round := flag.Int("round", -1, "run one round of a --trace 0 run in this process and print its raw samples (the parent process does this)")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *traced == 1, *round); err != nil {
		fmt.Fprintln(os.Stderr, "icebench:", err)
		os.Exit(1)
	}
}

// env is one invocation's context.
type env struct {
	root, scratch string
	w             *workload
	seed          int64
	seconds       int
	// steal0 and all0 are the machine's CPU ticks when the run began.
	steal0, all0 int64
}

func run(name string, seed int64, seconds int, traced bool, round int) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", seconds)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	tp, err := loadTemplates(root)
	if err != nil {
		return fmt.Errorf("load examples (run from the repository root): %w", err)
	}
	w := workloads(tp)[name]
	if w == nil {
		return fmt.Errorf("unknown workload %q (want echem_paced, control_plane or mixed_facility)", name)
	}
	stateRoot := filepath.Join(root, ".bench_build", "state")
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(stateRoot, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	e := &env{root: root, scratch: scratch, w: w, seed: seed, seconds: seconds}

	if round >= 0 {
		return e.roundRun(round)
	}
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d %s statefs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(stateRoot))
	fmt.Printf("workload: %s lab=%s timescale=%g tenants=%s seed=%d seconds=%d trace=%t\n",
		w.Name, w.Lab, w.TimeScale, strings.Join(w.Tenants, ","), seed, seconds, traced)
	e.steal0, e.all0 = cpuSteal()
	if traced {
		return e.perLayerRun()
	}
	return e.endToEndRun()
}

// cpuSteal reads the machine-wide steal and total CPU ticks from
// /proc/stat (zeros where it is unreadable).
func cpuSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// setUp brings a stack up under the run's scratch directory and warms
// it: facility build, scheduler start, listener, and one warm-up job
// per kind the workload uses.
func (e *env) setUp(sub string, traced bool) (*stack, time.Duration, []*jobRecord, error) {
	t0 := time.Now()
	st, err := bringUp(e.root, e.w, filepath.Join(e.scratch, sub), traced)
	if err != nil {
		return nil, 0, nil, err
	}
	warm, err := warmup(st, e.w)
	if err != nil {
		st.close()
		return nil, 0, nil, err
	}
	return st, time.Since(t0), warm, nil
}

// endToEndRun is --trace 0: the window is split across rounds, each
// a child process that sets up, runs its share untraced and checks its
// outputs; the metrics pool the rounds' samples.
func (e *env) endToEndRun() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var rs []roundResult
	for i := 0; i < rounds; i++ {
		cmd := exec.Command(self, "--workload", e.w.Name, "--seed", strconv.FormatInt(e.seed, 10),
			"--seconds", strconv.Itoa(e.seconds), "--round", strconv.Itoa(i))
		cmd.Dir = e.root
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		var r roundResult
		if err := json.Unmarshal(out, &r); err != nil {
			return fmt.Errorf("round %d printed %.200q: %w", i, out, err)
		}
		rs = append(rs, r)
	}
	var fails []string
	attempted, done := 0, 0
	for i, r := range rs {
		for _, f := range r.Fails {
			fails = append(fails, fmt.Sprintf("round %d: %s", i, f))
		}
		attempted += r.Attempted
		done += r.Done
	}
	return e.report(endToEnd(rs), attempted, done, fails)
}

// roundRun is one round of a --trace 0 run: set-up, an untraced share
// of the window at a seed derived from the run's, the output checks,
// and the raw samples as one JSON document on stdout.
func (e *env) roundRun(round int) error {
	st, setup, _, err := e.setUp("a", false)
	if err != nil {
		return err
	}
	defer st.close()
	share := time.Duration(e.seconds) * time.Second / rounds
	win, err := runWindow(st, e.w, e.seed*rounds+int64(round), share)
	if err != nil {
		return err
	}
	r := summarize(win, setup)
	r.Fails, _ = checkWindow(st, win)
	return json.NewEncoder(os.Stdout).Encode(r)
}

// perLayerRun is --trace 1: an untraced window (SSE, stats and
// wrapper numbers, probes), then a traced window on a fresh stack with
// the same seed, every span kept and audit journals on.
func (e *env) perLayerRun() error {
	half := time.Duration(e.seconds) * time.Second / 2
	st, _, _, err := e.setUp("a", false)
	if err != nil {
		return err
	}
	defer st.close()
	win, err := runWindow(st, e.w, e.seed, half)
	if err != nil {
		return err
	}
	fails, files := checkWindow(st, win)
	probes, err := runProbes(st, win, files, e.scratch)
	if err != nil {
		return err
	}

	stT, _, warmT, err := e.setUp("b", true)
	if err != nil {
		return err
	}
	defer stT.close()
	winT, err := runWindow(stT, e.w, e.seed, half)
	if err != nil {
		return err
	}
	failsT, _ := checkWindow(stT, winT)
	fails = append(fails, failsT...)
	fails = append(fails, checkAudit(stT, append(warmT, winT.Records...))...)

	in := &layerInputs{
		st: st, stT: stT, win: win, winT: winT,
		buildMS:    []float64{ms(st.buildDur), ms(stT.buildDur)},
		traces:     map[string][]trace.Record{},
		breakdowns: map[string]trace.Breakdown{},
		probes:     probes,
		errorSpans: map[string]int{},
	}
	for _, r := range winT.done() {
		tr, err := fetchTrace(stT.base, r.Trace)
		if err != nil {
			return err
		}
		in.traces[r.ID] = tr.Spans
		in.breakdowns[r.ID] = tr.Breakdown
		for _, s := range tr.Spans {
			if s.Error != "" {
				in.errorSpans[s.Name]++
			}
		}
	}
	printSpanSummary("error spans (traced window)", in.errorSpans)
	printBenchSpans(stT.bench)
	return e.report(perLayer(in), len(win.Records)+len(winT.Records), len(win.done())+len(winT.done()), fails)
}

func fetchTrace(base, id string) (sched.TraceResponse, error) {
	var tr sched.TraceResponse
	resp, err := http.Get(base + "/v1/traces/" + id)
	if err != nil {
		return tr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tr, fmt.Errorf("trace %s: %s", id, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&tr)
	return tr, err
}

func printSpanSummary(title string, counts map[string]int) {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d kinds\n", title, len(names))
	for _, n := range names {
		fmt.Printf("  %-40s ×%d\n", n, counts[n])
	}
}

// printBenchSpans summarises the benchmark's own spans around the
// calls into the gateway: count and total time per span name.
func printBenchSpans(bench *trace.Tracer) {
	count := map[string]int{}
	total := map[string]time.Duration{}
	for _, s := range bench.Store().Summaries() {
		for _, r := range bench.Store().Trace(s.TraceID) {
			count[r.Name]++
			total[r.Name] += r.Duration()
		}
	}
	names := make([]string, 0, len(count))
	for n := range count {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("benchmark spans (traced stack, warm-up included):")
	for _, n := range names {
		fmt.Printf("  %-40s ×%-5d %10.1f ms\n", n, count[n], ms(total[n]))
	}
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name with its unit, the check
// failures, and the result line. It returns errCheck when a check
// failed.
func (e *env) report(m metrics, attempted, done int, fails []string) error {
	if steal, all := cpuSteal(); all > e.all0 {
		fmt.Printf("machine: %.1f%% of CPU time stolen by the hypervisor during the run\n", 100*float64(steal-e.steal0)/float64(all-e.all0))
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(fails) == 0, Attempted: attempted, Failed: attempted - done, Metrics: map[string]value{}}
	for _, x := range m {
		fmt.Printf("%-30s %14.4f %-8s %s\n", x.Name, x.Value, x.Unit, x.Note)
		if !x.Info {
			out.Metrics[x.Name] = value{x.Value, x.Unit}
		}
	}
	for _, f := range fails {
		fmt.Println("CHECK FAILED:", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errCheck
	}
	return nil
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown"
	}
	switch s.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", s.Type)
}
