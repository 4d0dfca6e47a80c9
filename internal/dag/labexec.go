package dag

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ice/internal/analysis"
	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/ml"
	"ice/internal/potentiostat"
	"ice/internal/units"
)

// DefaultClassifierSeed is the training seed ml-classify nodes use
// when the spec does not pin one. The seed fully determines the
// ensemble, so the verdict for a given measurement is reproducible
// across processes and facilities.
const DefaultClassifierSeed = 7

var (
	classifierMu    sync.Mutex
	classifierCache = map[int64]*ml.Ensemble{}
)

// ClassifierForSeed trains (once per process) and returns the
// normality classifier for a seed. Training is deterministic in the
// seed, so two facilities running the same spec agree on verdicts.
func ClassifierForSeed(seed int64) (*ml.Ensemble, error) {
	classifierMu.Lock()
	defer classifierMu.Unlock()
	if e, ok := classifierCache[seed]; ok {
		return e, nil
	}
	e, _, err := ml.TrainNormalityClassifier(ml.GenerateConfig{
		PerClass: 12,
		Samples:  300,
		BaseSeed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("dag: train classifier (seed %d): %w", seed, err)
	}
	classifierCache[seed] = e
	return e, nil
}

// LabExecutor runs DAG nodes against a live lab: pyro RPCs over the
// control channel, measurement retrieval over the data channel, and
// local analysis — the same split as the hardwired A–E workflow.
type LabExecutor struct {
	Session *core.RemoteSession
	Mount   datachan.Share
	// WaitPoll/WaitTimeout bound the data-channel wait for a
	// measurement file (defaults 20ms / 2m, as the CV workflow).
	WaitPoll    time.Duration
	WaitTimeout time.Duration
	// Classifier, when set, overrides seed-derived training for
	// ml-classify nodes (a gateway shares one trained ensemble across
	// jobs this way).
	Classifier *ml.Ensemble
	// AcquireBudget bounds an acquire node's instrument hold (the
	// pipeline through call_Get_Tech_Path_Rslt). When zero and the node
	// runs under a deadline, the budget is 60% of what remains, so a
	// wedged potentiostat surfaces as a phase timeout in seconds rather
	// than riding out the lease TTL.
	AcquireBudget time.Duration
}

func (x *LabExecutor) waitPoll() time.Duration {
	if x.WaitPoll > 0 {
		return x.WaitPoll
	}
	return 20 * time.Millisecond
}

func (x *LabExecutor) waitTimeout() time.Duration {
	if x.WaitTimeout > 0 {
		return x.WaitTimeout
	}
	return 2 * time.Minute
}

// RunNode dispatches one node by type.
func (x *LabExecutor) RunNode(ctx context.Context, inv *Invocation) (*NodeResult, []byte, error) {
	n := inv.Node
	switch n.Type {
	case TypePyro:
		return x.runPyro(ctx, n)
	case TypeFill:
		return x.runFill(ctx, n)
	case TypeAcquire:
		return x.runAcquire(ctx, inv)
	case TypeRetrieve:
		return x.runRetrieve(ctx, inv)
	case TypeAnalyze:
		return x.runAnalyze(inv)
	case TypeClassify:
		return x.runClassify(inv)
	}
	return nil, nil, fmt.Errorf("no executor for node type %q", n.Type)
}

func (x *LabExecutor) runPyro(ctx context.Context, n *Node) (*NodeResult, []byte, error) {
	x.Session.BindTraceContext(ctx)
	if n.Object == "sp200" && n.Method == "DisconnectSP200" {
		// Teardown must also succeed when the upstream acquire was served
		// from cache or a checkpoint and the instrument never powered on;
		// ResetSP200 is the disconnect that tolerates the off state.
		if err := x.Session.ResetSP200(); err != nil {
			return nil, nil, fmt.Errorf("%s.%s: %w", n.Object, n.Method, err)
		}
		return &NodeResult{Output: "disconnected"}, nil, nil
	}
	out, err := x.Session.Call(n.Object, n.Method, n.Args...)
	if err != nil {
		return nil, nil, fmt.Errorf("%s.%s: %w", n.Object, n.Method, err)
	}
	return &NodeResult{Output: out}, nil, nil
}

func (x *LabExecutor) runFill(ctx context.Context, n *Node) (*NodeResult, []byte, error) {
	x.Session.BindTraceContext(ctx)
	f := n.Fill
	steps := []struct {
		label string
		call  func() (string, error)
	}{
		{"Set_Rate_SyringePump", func() (string, error) { return x.Session.SetRateSyringePump(f.PumpAddr, f.RateMLMin) }},
		{"Set_Port_SyringePump", func() (string, error) { return x.Session.SetPortSyringePump(f.PumpAddr, f.StockPort) }},
		{"Withdraw_SyringePump", func() (string, error) { return x.Session.WithdrawSyringePump(f.PumpAddr, f.VolumeML) }},
		{"Set_Port_SyringePump", func() (string, error) { return x.Session.SetPortSyringePump(f.PumpAddr, f.CellPort) }},
		{"Dispense_SyringePump", func() (string, error) { return x.Session.DispenseSyringePump(f.PumpAddr, f.VolumeML) }},
	}
	for _, s := range steps {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if _, err := s.call(); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.label, err)
		}
	}
	return &NodeResult{Output: fmt.Sprintf("filled %.1f mL via pump %d", f.VolumeML, f.PumpAddr)}, nil, nil
}

// runAcquire drives the six-step SP200 pipeline plus the blocking
// result wait under the acquire-phase budget. inv.OnMeasured fires as
// soon as the remote file exists — the acquire→retrieve boundary where
// the engine can release the instrument gate. The node's digest is the
// export-side SHA-256, read over the data channel after the instrument
// is free.
func (x *LabExecutor) runAcquire(ctx context.Context, inv *Invocation) (*NodeResult, []byte, error) {
	n := inv.Node
	budget := x.acquireBudget(ctx)
	acqCtx := ctx
	if budget > 0 {
		var cancel context.CancelFunc
		acqCtx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	x.Session.BindTraceContext(ctx)
	// The bound phase context's deadline bounds every SP200 call in the
	// pipeline, including the blocking step-7 wait.
	x.Session.BindCallContext(acqCtx)
	defer x.Session.BindCallContext(ctx)
	fileName, err := func() (string, error) {
		// Clear any stale SP200 state from a previous node or crashed
		// attempt before the full bring-up.
		if err := x.Session.ResetSP200(); err != nil {
			return "", fmt.Errorf("reset sp200: %w", err)
		}
		steps := []struct {
			label string
			call  func() (string, error)
		}{
			{"call_Initialize_SP200_API", func() (string, error) { return x.Session.CallInitializeSP200API(n.Acquire.System) }},
			{"call_Connect_SP200", x.Session.CallConnectSP200},
			{"call_Load_Firmware_SP200", x.Session.CallLoadFirmwareSP200},
			{"call_Initialize_CV_Tech_SP200", func() (string, error) { return x.Session.CallInitializeCVTechSP200(n.Acquire.CV) }},
			{"call_Load_Technique_SP200", x.Session.CallLoadTechniqueSP200},
			{"call_Start_Channel_SP200", x.Session.CallStartChannelSP200},
		}
		for i, s := range steps {
			if _, err := s.call(); err != nil {
				return "", fmt.Errorf("step %d %s: %w", i+1, s.label, err)
			}
		}
		fileName, err := x.Session.CallGetTechPathRslt()
		if err != nil {
			return "", fmt.Errorf("step 7 call_Get_Tech_Path_Rslt: %w", err)
		}
		return fileName, nil
	}()
	if err != nil {
		if budget > 0 && errors.Is(acqCtx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			// The node's own deadline had not arrived, so this phase hung:
			// the "exceeded its" text is the wedge marker the health
			// classifier keys on, and "sp200" names the instrument.
			err = fmt.Errorf("sp200 acquire phase exceeded its %v budget: %w", budget, err)
		}
		return nil, nil, err
	}
	if inv.OnMeasured != nil {
		inv.OnMeasured(fileName)
	}
	// The instrument is free; the digest read rides the data channel.
	remoteSum, remoteSize, err := x.Mount.Checksum(fileName)
	if err != nil {
		return nil, nil, fmt.Errorf("checksum %q: %w", fileName, err)
	}
	return &NodeResult{
		File:   fileName,
		Digest: remoteSum,
		Output: fmt.Sprintf("measured %s (%d bytes)", fileName, remoteSize),
	}, nil, nil
}

// acquireBudget picks the acquire-phase budget: AcquireBudget when
// set, else 60% of the time left before ctx's deadline, else none.
func (x *LabExecutor) acquireBudget(ctx context.Context) time.Duration {
	if x.AcquireBudget > 0 {
		return x.AcquireBudget
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	if remaining := time.Until(dl); remaining > 0 {
		return remaining * 6 / 10
	}
	return 0
}

// runRetrieve pulls the acquire dependency's measurement over the
// data channel with the workflow's end-to-end verification, and
// additionally pins the bytes to the digest the acquire node
// recorded — a re-acquisition cannot masquerade as the original.
func (x *LabExecutor) runRetrieve(ctx context.Context, inv *Invocation) (*NodeResult, []byte, error) {
	acq := inv.Deps[inv.Node.depOfType(specIndex(inv), TypeAcquire)]
	if acq == nil || acq.File == "" {
		return nil, nil, fmt.Errorf("acquire dependency reported no measurement file")
	}
	waitCtx, cancel := context.WithTimeout(ctx, x.waitTimeout())
	defer cancel()
	data, gotName, err := x.Mount.WaitForContext(waitCtx, acq.File, x.waitPoll())
	if err != nil {
		return nil, nil, fmt.Errorf("data channel: %w", err)
	}
	localSum := sha256Sum(data)
	remoteSum, remoteSize, err := x.Mount.Checksum(gotName)
	if err != nil {
		return nil, nil, fmt.Errorf("data channel checksum: %w", err)
	}
	if remoteSum != localSum || remoteSize != int64(len(data)) {
		return nil, nil, fmt.Errorf("measurement file %q failed end-to-end verification (local %d bytes sha %.8s, remote %d bytes sha %.8s)",
			gotName, len(data), localSum, remoteSize, remoteSum)
	}
	if acq.Digest != "" && acq.Digest != localSum {
		return nil, nil, fmt.Errorf("measurement file %q changed since acquisition (acquired sha %.8s, retrieved sha %.8s)",
			gotName, acq.Digest, localSum)
	}
	return &NodeResult{
		File:   gotName,
		Digest: localSum,
		Output: fmt.Sprintf("retrieved %d bytes, end-to-end verified", len(data)),
	}, data, nil
}

func (x *LabExecutor) runAnalyze(inv *Invocation) (*NodeResult, []byte, error) {
	data, err := retrievePayload(inv)
	if err != nil {
		return nil, nil, err
	}
	mf, err := potentiostat.ParseMPT(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("parse measurements: %w", err)
	}
	e, i := analysis.FromRecords(mf.Records)
	summary, err := analysis.AnalyzeCV(e, i, units.Celsius(25))
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: %w", err)
	}
	return &NodeResult{
		Points:       len(mf.Records),
		AnodicPeakUA: summary.AnodicPeak.Microamperes(),
		Output:       summary.String(),
	}, nil, nil
}

func (x *LabExecutor) runClassify(inv *Invocation) (*NodeResult, []byte, error) {
	data, err := retrievePayload(inv)
	if err != nil {
		return nil, nil, err
	}
	clf := x.Classifier
	if clf == nil {
		clf, err = ClassifierForSeed(inv.Node.Seed)
		if err != nil {
			return nil, nil, err
		}
	}
	mf, err := potentiostat.ParseMPT(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("parse measurements: %w", err)
	}
	e, i := analysis.FromRecords(mf.Records)
	feats, err := ml.Features(e, i)
	if err != nil {
		return nil, nil, fmt.Errorf("feature extraction: %w", err)
	}
	class, err := clf.Predict(feats)
	if err != nil {
		return nil, nil, fmt.Errorf("classification: %w", err)
	}
	return &NodeResult{
		Class:     class,
		ClassName: ml.ClassName(class),
		Output:    fmt.Sprintf("normality verdict: %s", ml.ClassName(class)),
	}, nil, nil
}

// retrievePayload finds the retrieve dependency's bytes in the
// invocation payload map.
func retrievePayload(inv *Invocation) ([]byte, error) {
	for dep, res := range inv.Deps {
		if res.Type == TypeRetrieve {
			if data, ok := inv.Payload[dep]; ok {
				return data, nil
			}
			return nil, fmt.Errorf("retrieve dependency %q has no payload (blob evicted?)", dep)
		}
	}
	return nil, fmt.Errorf("no retrieve dependency resolved")
}

// specIndex builds a type lookup over the invocation's dependencies
// so Node.depOfType works without the full spec.
func specIndex(inv *Invocation) map[string]*Node {
	m := make(map[string]*Node, len(inv.Deps))
	for id, res := range inv.Deps {
		m[id] = &Node{ID: id, Type: res.Type}
	}
	return m
}
