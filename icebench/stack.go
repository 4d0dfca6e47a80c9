package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/labreg"
	"ice/internal/sched"
	"ice/internal/trace"
)

// The daemon's defaults (cmd/icegated flags), so the benchmark
// measures the gateway as it ships.
const (
	daemonQueue         = 64
	daemonWorkers       = 2
	daemonLeaseTTL      = 10 * time.Second
	daemonProbeInterval = time.Second
	daemonMinDeadline   = 500 * time.Millisecond
	daemonRetryAfter    = 2 * time.Second
	daemonCampaignPts   = 300
	daemonDAGCacheMax   = 256 << 20
	daemonLabSeed       = 1
)

// stack is one facility brought up the way `icegated -lab` does it:
// labreg facility, scheduler with health supervision, LabRunner,
// probers, and the gateway served over loopback HTTP.
type stack struct {
	fac     *labreg.Facility
	s       *sched.Scheduler
	srv     *http.Server
	served  chan error
	base    string
	closers []func()
	meter   *meter
	// bench records the benchmark's own spans: around each job's
	// submit, event-stream wait and drain, and around the connector
	// and data-share calls (kept only on the traced stack).
	bench *trace.Tracer
	// echemRes and stemRes are the lease names of the echem gate and
	// the scan instrument ("" when the facility has none).
	echemRes []string
	stemRes  string
	buildDur time.Duration
}

// bringUp materializes w's facility under dir. traced selects the
// sampler: Never for end-to-end runs, Always (with a store large
// enough to keep every span) for the traced run, which also turns on
// the stations' audit journals.
func bringUp(root string, w *workload, dir string, traced bool) (*stack, error) {
	bench := trace.New(trace.WithSampler(trace.Never{}))
	if traced {
		bench = trace.New(trace.WithStore(trace.NewStore(1<<16, 1<<16)), trace.WithSampler(trace.Always{}))
	}
	st := &stack{meter: newMeter(bench), bench: bench, served: make(chan error, 1)}
	t0 := time.Now()
	f, err := labreg.LoadAndBuild(filepath.Join(root, w.Lab), labreg.BuildOptions{
		Dir:       filepath.Join(dir, "lab"),
		TimeScale: w.TimeScale,
		Seed:      daemonLabSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("build facility %s: %w", w.Lab, err)
	}
	st.buildDur = time.Since(t0)
	st.fac = f
	st.closers = append(st.closers, func() { f.Close() })
	if traced {
		if err := f.EnableAudit(); err != nil {
			st.close()
			return nil, err
		}
	}
	if st.echemRes, err = f.GateResources("echem"); err != nil {
		st.close()
		return nil, err
	}
	if res, err := f.GateResources("microscopy"); err == nil && len(res) > 0 {
		st.stemRes = res[0]
	}

	var tracer *trace.Tracer
	if traced {
		tracer = trace.New(
			trace.WithStore(trace.NewStore(1<<16, 1<<16)),
			trace.WithRecorder(trace.NewRecorder(512)),
			trace.WithSampler(trace.Always{}),
		)
	} else {
		tracer = trace.New(
			trace.WithStore(trace.NewStore(0, 0)),
			trace.WithRecorder(trace.NewRecorder(512)),
			trace.WithSampler(trace.Never{}),
		)
	}
	s, err := sched.New(sched.Config{
		Dir:           filepath.Join(dir, "state"),
		QueueCapacity: daemonQueue,
		RetryAfter:    daemonRetryAfter,
		Workers:       daemonWorkers,
		LeaseTTL:      daemonLeaseTTL,
		Tracer:        tracer,
		Health: sched.HealthConfig{
			ProbeInterval: daemonProbeInterval,
			MinDeadline:   daemonMinDeadline,
			Instruments:   f.HealthInstruments(),
			ClassesFor:    f.ClassesFor,
		},
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.s = s
	s.SetRunner(&sched.LabRunner{
		Connector:        &meteredConnector{f: f, m: st.meter},
		Leases:           s.Leases(),
		Dir:              s.Dir(),
		CampaignCVPoints: daemonCampaignPts,
		Metrics:          s.Metrics(),
		CacheMaxBytes:    daemonDAGCacheMax,
	})
	gw := sched.NewGateway(s)
	st.closers = append(st.closers, wireFacilityProbers(s, gw, f))
	if err := s.Start(); err != nil {
		st.close()
		return nil, err
	}
	st.closers = append(st.closers, s.Stop)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.srv = &http.Server{Handler: gw}
	go func() { st.served <- st.srv.Serve(l) }()
	st.base = "http://" + l.Addr().String()
	return st, nil
}

// close stops the HTTP server, the scheduler, the probers and the
// facility, in that order, and waits for the server goroutine.
func (st *stack) close() {
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		st.srv.Shutdown(ctx)
		cancel()
		if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "icebench: serve:", err)
		}
		st.srv = nil
	}
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}

// wireFacilityProbers wires health probes for every instrument the
// facility materialized, as `icegated -lab` does: the echem prober
// covers the sp200/jkem classes, the scan prober the stem devices, and
// the quarantine fence fans out to both. Returns the combined closer.
func wireFacilityProbers(s *sched.Scheduler, gw *sched.Gateway, f *labreg.Facility) func() {
	instruments := f.HealthInstruments()
	var closers []func()
	var fences []func(ctx context.Context, resource string)
	var echemRes []string
	for class, resources := range instruments {
		if class != "stem" {
			echemRes = append(echemRes, resources...)
		}
	}
	if len(echemRes) > 0 {
		p := &sched.LabProber{Connector: f}
		for _, res := range echemRes {
			s.RegisterProber(res, p.ProberFor(res))
		}
		fences = append(fences, p.FenceFor)
		gw.Registry().AddSource(p.HealthSource())
		closers = append(closers, p.Close)
	}
	if scanRes := instruments["stem"]; len(scanRes) > 0 {
		p := &sched.ScanProber{Connector: f}
		for _, res := range scanRes {
			s.RegisterProber(res, p.Prober())
		}
		fences = append(fences, p.Fence)
		gw.Registry().AddSource(p.HealthSource())
		closers = append(closers, p.Close)
	}
	s.SetFence(func(ctx context.Context, resource string) {
		for _, fence := range fences {
			fence(ctx, resource)
		}
	})
	return func() {
		for _, c := range closers {
			c()
		}
	}
}

// meteredConnector is the Connector handed to LabRunner: it times
// every connect and hands out metered data shares, so the pyro
// connect and datachan layers are measured through their public
// interfaces.
type meteredConnector struct {
	f *labreg.Facility
	m *meter
}

func (c *meteredConnector) ConnectSession() (*core.RemoteSession, datachan.Share, error) {
	done := c.m.begin("pyro.connect")
	s, sh, err := c.f.ConnectSession()
	done(0)
	if err != nil {
		return nil, nil, err
	}
	return s, &meteredShare{Share: sh, m: c.m, layer: "datachan.retrieve"}, nil
}

func (c *meteredConnector) ConnectLab() (*core.LabSession, datachan.Share, error) {
	done := c.m.begin("pyro.connect")
	s, sh, err := c.f.ConnectLab()
	done(0)
	if err != nil {
		return nil, nil, err
	}
	return s, &meteredShare{Share: sh, m: c.m, layer: "datachan.retrieve"}, nil
}

func (c *meteredConnector) ConnectScan() (*core.RemoteSession, datachan.Share, string, error) {
	done := c.m.begin("pyro.connect")
	s, sh, obj, err := c.f.ConnectScan()
	done(0)
	if err != nil {
		return nil, nil, "", err
	}
	return s, &meteredShare{Share: sh, m: c.m, layer: "datachan.scan_stream"}, obj, nil
}

// meteredShare times the data-returning reads of a datachan.Share and
// counts their bytes.
type meteredShare struct {
	datachan.Share
	m     *meter
	layer string
}

func (s *meteredShare) ReadAll(name string) ([]byte, error) {
	done := s.m.begin(s.layer)
	data, err := s.Share.ReadAll(name)
	done(len(data))
	return data, err
}

func (s *meteredShare) ReadAllVerified(name string) ([]byte, error) {
	done := s.m.begin(s.layer)
	data, err := s.Share.ReadAllVerified(name)
	done(len(data))
	return data, err
}

func (s *meteredShare) WaitFor(substr string, poll, timeout time.Duration) ([]byte, string, error) {
	done := s.m.begin(s.layer)
	data, name, err := s.Share.WaitFor(substr, poll, timeout)
	done(len(data))
	return data, name, err
}

func (s *meteredShare) WaitForContext(ctx context.Context, substr string, poll time.Duration) ([]byte, string, error) {
	done := s.m.begin(s.layer)
	data, name, err := s.Share.WaitForContext(ctx, substr, poll)
	done(len(data))
	return data, name, err
}
