package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"

	"ice/internal/analysis"
	"ice/internal/datachan"
	"ice/internal/ml"
	"ice/internal/potentiostat"
	"ice/internal/trace"
	"ice/internal/units"
	"ice/internal/workflow"
)

// CVWorkflowConfig parameterises the demonstrated electrochemical
// workflow.
type CVWorkflowConfig struct {
	// Fill is the task-C cell-filling sequence.
	Fill FillParams
	// System is the task-D step-1 payload.
	System SystemParams
	// CV is the task-D technique program.
	CV CVParams
	// GasSCCM is the argon purge set during task B.
	GasSCCM float64
	// Classifier optionally runs the ML normality check on the
	// retrieved measurements.
	Classifier *ml.Ensemble
	// WaitPoll and WaitTimeout bound the data-channel wait for the
	// measurement file.
	WaitPoll    time.Duration
	WaitTimeout time.Duration
	// ProgressPoll, when > 0, logs the measurement file's growth into
	// the transcript while acquisition is in flight (real-time
	// monitoring over the pipelined control/data channels).
	ProgressPoll time.Duration
	// TraceLabel names this workflow's holder in phase spans (usually
	// the job or cell ID); the critical-path analyzer uses it to tell
	// one tenant's data phase from another's instrument phase when
	// measuring overlap.
	TraceLabel string
	// StreamAnalysis overlaps retrieval and analysis with acquisition:
	// the measurement file is tailed over the data channel while the
	// SP200 is still writing it, records are parsed incrementally, and
	// (when Classifier is set) windowed feature extraction plus
	// ensemble classification run online so the normality verdict is
	// ready within the acquisition window — the analysis segment
	// collapses into the instrument segment on the critical path. The
	// streamed bytes are verified end-to-end against the export-side
	// SHA-256 exactly like the classic path; any streaming failure
	// falls back to the classic retrieve-then-analyze sequence, so the
	// outcome is never weaker than with streaming off.
	StreamAnalysis bool
	// StreamPoll is the streaming tail-read poll interval (default
	// WaitPoll).
	StreamPoll time.Duration
}

// PaperCVWorkflowConfig returns the demonstration parameters.
func PaperCVWorkflowConfig() CVWorkflowConfig {
	return CVWorkflowConfig{
		Fill:        PaperFillParams(),
		System:      PaperSystemParams(),
		CV:          PaperCVParams(),
		GasSCCM:     20,
		WaitPoll:    20 * time.Millisecond,
		WaitTimeout: 2 * time.Minute,
	}
}

// CVOutcome collects what task D produced for downstream use.
type CVOutcome struct {
	// FileName is the measurement file retrieved over the data channel.
	FileName string
	// SHA256 is the hex digest of the retrieved file's bytes, verified
	// against the export-side checksum before analysis.
	SHA256 string
	// Records are the parsed measurements.
	Records []potentiostat.Record
	// Summary is the remote-side peak analysis.
	Summary *analysis.CVSummary
	// Classified reports whether the ML check ran.
	Classified bool
	// Class and ClassName are the ML verdict.
	Class     int
	ClassName string
	// Streamed reports that the streaming path retrieved and analyzed
	// the measurements concurrently with acquisition.
	Streamed bool
	// StreamEvals counts the provisional online verdicts produced
	// while the instrument was still acquiring.
	StreamEvals int
	// AcquireEnd and VerdictReady timestamp the instrument release
	// (step 7 returning) and the final classification; on the
	// streaming path their gap is the verdict-ready latency the
	// acquisition window hides.
	AcquireEnd, VerdictReady time.Time
}

// mountStats is satisfied by a ReliableMount: the workflow uses it to
// notice the data channel flapping during a retrieval.
type mountStats interface {
	Stats() datachan.MountStats
}

// spanBinder is satisfied by a ReliableMount: the workflow binds the
// current retrieval's span so redials/resumes land on it as events.
type spanBinder interface {
	SetSpan(*trace.Span)
}

// BuildCVWorkflow composes the paper's tasks A–E against an open
// session and data mount (plain or reliable — any datachan.Share).
// The returned outcome is populated as the notebook executes.
func BuildCVWorkflow(session *RemoteSession, mount datachan.Share, cfg CVWorkflowConfig) (*workflow.Notebook, *CVOutcome) {
	nb := workflow.New("electrochemical-cv")
	outcome := &CVOutcome{}
	if cfg.WaitPoll <= 0 {
		cfg.WaitPoll = 20 * time.Millisecond
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = 2 * time.Minute
	}

	// phase opens a classed sub-span under the running task's span,
	// stamped with the workflow's holder label so the critical-path
	// analyzer can attribute instrument/data/analysis time per tenant.
	phase := func(c *workflow.Context, name, class string) (context.Context, *trace.Span) {
		ctx, span := trace.Start(c.Ctx, name, class)
		if cfg.TraceLabel != "" {
			span.SetAttr("holder", cfg.TraceLabel)
		}
		return ctx, span
	}

	nb.MustAdd(&workflow.Task{
		ID: "A", Title: "Establish Pyro communications across ICE",
		Run: func(c *workflow.Context) (string, error) {
			session.BindTraceContext(c.Ctx)
			if _, err := session.JKemStatus(); err != nil {
				return "", fmt.Errorf("J-Kem object unreachable: %w", err)
			}
			if _, err := session.SP200Status(); err != nil {
				return "", fmt.Errorf("SP200 object unreachable: %w", err)
			}
			return "OK", nil
		},
	})

	nb.MustAdd(&workflow.Task{
		ID: "B", Title: "Configure and connect J-Kem instrument setup",
		DependsOn: []string{"A"},
		Run: func(c *workflow.Context) (string, error) {
			session.BindTraceContext(c.Ctx)
			if cfg.GasSCCM > 0 {
				if _, err := session.SetGasFlow(1, cfg.GasSCCM); err != nil {
					return "", err
				}
			}
			if _, err := session.SetVialFractionCollector(1, cfg.Fill.Vial); err != nil {
				return "", err
			}
			temp, err := session.ReadTemperature(1)
			if err != nil {
				return "", err
			}
			c.Logf("cell at %.2f °C, purge %.1f sccm", temp, cfg.GasSCCM)
			return "OK", nil
		},
	})

	nb.MustAdd(&workflow.Task{
		ID: "C", Title: "Fill electrochemical cell with ferrocene solution",
		DependsOn: []string{"B"},
		Run: func(c *workflow.Context) (st string, err error) {
			// The fill moves physical liquid under exclusive J-Kem
			// control: instrument-class time for the breakdown.
			fillCtx, fillSpan := phase(c, "cv.fill", trace.ClassInstrument)
			session.BindTraceContext(fillCtx)
			defer func() { fillSpan.EndErr(err) }()
			f := cfg.Fill
			steps := []struct {
				label string
				call  func() (string, error)
			}{
				{"Set_Rate_SyringePump", func() (string, error) { return session.SetRateSyringePump(f.PumpAddr, f.RateMLMin) }},
				{"Set_Port_SyringePump", func() (string, error) { return session.SetPortSyringePump(f.PumpAddr, f.StockPort) }},
				{"Withdraw_SyringePump", func() (string, error) { return session.WithdrawSyringePump(f.PumpAddr, f.VolumeML) }},
				{"Set_Port_SyringePump", func() (string, error) { return session.SetPortSyringePump(f.PumpAddr, f.CellPort) }},
				{"Dispense_SyringePump", func() (string, error) { return session.DispenseSyringePump(f.PumpAddr, f.VolumeML) }},
			}
			for _, s := range steps {
				out, err := s.call()
				if err != nil {
					return "", fmt.Errorf("%s: %w", s.label, err)
				}
				c.Logf("%s\n%s", s.label, out)
			}
			return "OK", nil
		},
	})

	nb.MustAdd(&workflow.Task{
		ID: "D", Title: "Run CV on SP200 and collect I-V measurements",
		DependsOn: []string{"C"},
		Run: func(c *workflow.Context) (string, error) {
			// Streaming state: when StreamAnalysis is on, a goroutine
			// tails the measurement file and analyzes it online while
			// step 7 blocks on the pipelined control channel.
			type streamOutcome struct {
				data   []byte
				res    datachan.StreamResult
				parser *potentiostat.StreamParser
				online *ml.OnlineClassifier
				err    error
			}
			var (
				streamCh     chan *streamOutcome
				streamCancel context.CancelFunc
				acquireDone  atomic.Bool
			)
			defer func() {
				if streamCancel != nil {
					streamCancel()
				}
			}()
			// Phase 1 — instrument hold: the eight-step SP200 pipeline
			// through call_Get_Tech_Path_Rslt. The span ends the moment
			// the instruments are free, so instrument-hold time in the
			// trace matches the time the instrument was busy.
			acquireCtx, acquireSpan := phase(c, "cv.acquire", trace.ClassInstrument)
			session.BindTraceContext(acquireCtx)
			// Bind the phase context so its cancellation aborts every
			// SP200 call in the pipeline, including the blocking step-7
			// wait.
			session.BindCallContext(acquireCtx)
			fileName, err := func() (string, error) {
				steps := []struct {
					label string
					call  func() (string, error)
				}{
					{"call_Initialize_SP200_API", func() (string, error) { return session.CallInitializeSP200API(cfg.System) }},
					{"call_Connect_SP200", session.CallConnectSP200},
					{"call_Load_Firmware_SP200", session.CallLoadFirmwareSP200},
					{"call_Initialize_CV_Tech_SP200", func() (string, error) { return session.CallInitializeCVTechSP200(cfg.CV) }},
					{"call_Load_Technique_SP200", session.CallLoadTechniqueSP200},
					{"call_Start_Channel_SP200", session.CallStartChannelSP200},
				}
				for i, s := range steps {
					out, err := s.call()
					if err != nil {
						return "", fmt.Errorf("step %d %s: %w", i+1, s.label, err)
					}
					c.Logf("(%d) %s → %s", i+1, s.label, out)
				}
				// Streaming retrieval + online analysis: learn the file
				// name now (step 6 fixed it before the first flush) and
				// tail it while step 7's blocking wait is in flight.
				if cfg.StreamAnalysis {
					fileHint, err := session.CallGetTechFileName()
					if err != nil {
						c.Logf("streaming analysis unavailable (%v); will retrieve classically", err)
					} else {
						streamPoll := cfg.StreamPoll
						if streamPoll <= 0 {
							streamPoll = cfg.WaitPoll
						}
						var sctx context.Context
						sctx, streamCancel = context.WithCancel(c.Ctx)
						streamCh = make(chan *streamOutcome, 1)
						go func() {
							so := &streamOutcome{parser: &potentiostat.StreamParser{}}
							if cfg.Classifier != nil {
								so.online = &ml.OnlineClassifier{
									Classifier: cfg.Classifier,
									OnVerdict: func(class, points int) {
										c.Logf("… online verdict over %d points: %s", points, ml.ClassName(class))
									},
								}
							}
							// Both spans run concurrently with cv.acquire,
							// so the critical-path breakdown attributes
							// this wall time to the instrument segment:
							// retrieval and analysis collapse into the
							// acquisition window.
							_, streamSpan := phase(c, "cv.retrieve", trace.ClassData)
							streamSpan.SetAttr("mode", "stream")
							var anaSpan *trace.Span
							so.data, so.res, so.err = datachan.StreamFile(sctx, mount, fileHint, datachan.StreamOptions{
								Poll: streamPoll,
								OnChunk: func(chunk []byte) {
									if chunk == nil { // refetch reset
										so.parser.Reset()
										if so.online != nil {
											so.online.Reset()
										}
										return
									}
									recs, _ := so.parser.Feed(chunk)
									if len(recs) == 0 {
										return
									}
									if anaSpan == nil {
										_, anaSpan = phase(c, "cv.analyze", trace.ClassAnalysis)
										anaSpan.SetAttr("mode", "stream")
									}
									if so.online != nil {
										e, i := analysis.FromRecords(recs)
										so.online.Add(e, i)
									}
								},
								Finished: func() bool { return acquireDone.Load() },
							})
							streamSpan.SetAttr("file", so.res.Name)
							streamSpan.EndErr(so.err)
							anaSpan.EndErr(so.err)
							streamCh <- so
						}()
					}
				}
				// While the blocking wait is in flight on the pipelined
				// control channel, optionally watch the data channel for
				// the growing measurement file and narrate progress (the
				// streaming path narrates on its own).
				var stopProgress chan struct{}
				if cfg.ProgressPoll > 0 && streamCh == nil {
					stopProgress = make(chan struct{})
					go func() {
						var lastSize int64 = -1
						ticker := time.NewTicker(cfg.ProgressPoll)
						defer ticker.Stop()
						for {
							select {
							case <-stopProgress:
								return
							case <-ticker.C:
							}
							files, err := mount.List()
							if err != nil {
								return
							}
							for _, f := range files {
								if f.Size != lastSize && f.Size > 0 {
									lastSize = f.Size
									c.Logf("… acquiring: %s now %d bytes", f.Name, f.Size)
								}
							}
						}
					}()
				}
				fileName, err := session.CallGetTechPathRslt()
				if stopProgress != nil {
					close(stopProgress)
				}
				if err != nil {
					return "", fmt.Errorf("step 7 call_Get_Tech_Path_Rslt: %w", err)
				}
				return fileName, nil
			}()
			acquireDone.Store(true)
			outcome.AcquireEnd = time.Now()
			session.BindCallContext(c.Ctx)
			acquireSpan.EndErr(err)
			session.BindTraceContext(c.Ctx)
			if err != nil {
				return "", err
			}
			c.Logf("(7) measurements are collected: %s", fileName)

			// Streamed completion: the tail-reader drains the last
			// bytes, the accumulated stream is digest-verified, and the
			// already-fed classifier finalizes — the only analysis left
			// outside the acquisition window. Any failure falls through
			// to the classic path below.
			if streamCh != nil {
				so := func() *streamOutcome {
					timer := time.NewTimer(cfg.WaitTimeout)
					defer timer.Stop()
					select {
					case so := <-streamCh:
						return so
					case <-timer.C:
						streamCancel()
						return <-streamCh
					}
				}()
				if msg, ok := func() (string, bool) {
					if so.err != nil {
						c.Logf("streaming retrieval failed (%v); falling back to classic retrieval", so.err)
						return "", false
					}
					records := so.parser.Records()
					if len(records) == 0 {
						c.Logf("stream produced no records; falling back to classic retrieval")
						return "", false
					}
					localSum := sha256.Sum256(so.data)
					outcome.SHA256 = hex.EncodeToString(localSum[:])
					outcome.FileName = so.res.Name
					outcome.Records = records
					c.Logf("streamed %d bytes in %d reads, end-to-end verified (sha256 %.16s…)",
						so.res.Bytes, so.res.Reads, outcome.SHA256)
					if so.res.Refetched {
						c.Logf("stream digest mismatch healed by verified refetch")
					}

					// The finalization tail: peak analysis plus the
					// authoritative classification over the full curve
					// (identical to the offline path's result).
					_, finSpan := phase(c, "cv.analyze", trace.ClassAnalysis)
					finSpan.SetAttr("mode", "stream-final")
					err := func() error {
						e, i := analysis.FromRecords(records)
						summary, err := analysis.AnalyzeCV(e, i, units.Celsius(25))
						if err != nil {
							return fmt.Errorf("analysis: %w", err)
						}
						outcome.Summary = summary
						if so.online != nil {
							outcome.StreamEvals = so.online.Evals()
							class, _, err := so.online.Finalize()
							if err != nil {
								return fmt.Errorf("classification: %w", err)
							}
							outcome.Classified = true
							outcome.Class = class
							outcome.ClassName = ml.ClassName(class)
						}
						return nil
					}()
					finSpan.EndErr(err)
					if err != nil {
						c.Logf("streamed analysis failed (%v); falling back to classic retrieval", err)
						return "", false
					}
					outcome.Streamed = true
					outcome.VerdictReady = time.Now()
					c.Logf("I-V analysis: %v", outcome.Summary)
					if outcome.Classified {
						c.Logf("ML normality check: %s (%d online verdicts during acquisition, final %v after instrument release)",
							outcome.ClassName, outcome.StreamEvals, outcome.VerdictReady.Sub(outcome.AcquireEnd).Round(time.Millisecond))
					}
					return fmt.Sprintf("OK %d points (streamed)", len(records)), true
				}(); ok {
					return msg, nil
				}
				// Fallback: reset the outcome fields the stream touched.
				outcome.SHA256, outcome.FileName, outcome.Records, outcome.Summary = "", "", nil, nil
				outcome.Classified, outcome.StreamEvals = false, 0
			}

			// Phase 2 — data channel: retrieve over the (CIFS-mounted)
			// share. On a reliable mount this rides out link faults,
			// resuming from the last verified offset; the mount's
			// redials/resumes land as events on this span, and the
			// health baseline notices flapping during this retrieval.
			_, retrSpan := phase(c, "cv.retrieve", trace.ClassData)
			if sb, ok := mount.(spanBinder); ok {
				sb.SetSpan(retrSpan)
				defer sb.SetSpan(nil)
			}
			var statsBefore datachan.MountStats
			if sr, ok := mount.(mountStats); ok {
				statsBefore = sr.Stats()
			}
			data, gotName, err := func() ([]byte, string, error) {
				waitCtx, cancelWait := context.WithTimeout(c.Ctx, cfg.WaitTimeout)
				defer cancelWait()
				data, gotName, err := mount.WaitForContext(waitCtx, fileName, cfg.WaitPoll)
				if err != nil {
					return nil, "", fmt.Errorf("data channel: %w", err)
				}

				// Final end-to-end integrity check before any analysis:
				// the local bytes must match the export-side SHA-256
				// right now.
				localSum := sha256.Sum256(data)
				outcome.SHA256 = hex.EncodeToString(localSum[:])
				remoteSum, remoteSize, err := mount.Checksum(gotName)
				if err != nil {
					return nil, "", fmt.Errorf("data channel checksum: %w", err)
				}
				if remoteSum != outcome.SHA256 || remoteSize != int64(len(data)) {
					return nil, "", fmt.Errorf("measurement file %q failed end-to-end verification (local %d bytes sha %.8s, remote %d bytes sha %.8s)",
						gotName, len(data), outcome.SHA256, remoteSize, remoteSum)
				}
				c.Logf("end-to-end verified %d bytes (sha256 %.16s…)", len(data), outcome.SHA256)
				return data, gotName, nil
			}()
			if sb, ok := mount.(spanBinder); ok {
				sb.SetSpan(nil)
			}
			retrSpan.SetAttr("file", fileName)
			retrSpan.EndErr(err)
			if err != nil {
				return "", err
			}

			if sr, ok := mount.(mountStats); ok {
				s := sr.Stats()
				if redials := s.Redials - statsBefore.Redials; redials > 0 {
					session.SetDataChannelDegraded(true)
					c.Logf("data channel degraded during retrieval: %d redials, %d resumes (%d verified bytes preserved)",
						redials, s.Resumes-statsBefore.Resumes, s.BytesResumed-statsBefore.BytesResumed)
				}
			}

			// Phase 3 — analysis: parse and analyze locally.
			_, anaSpan := phase(c, "cv.analyze", trace.ClassAnalysis)
			mf, summary, err := func() (*potentiostat.MeasurementFile, *analysis.CVSummary, error) {
				mf, err := potentiostat.ParseMPT(bytes.NewReader(data))
				if err != nil {
					return nil, nil, fmt.Errorf("parse measurements: %w", err)
				}
				e, i := analysis.FromRecords(mf.Records)
				summary, err := analysis.AnalyzeCV(e, i, units.Celsius(25))
				if err != nil {
					return nil, nil, fmt.Errorf("analysis: %w", err)
				}
				return mf, summary, nil
			}()
			anaSpan.EndErr(err)
			if err != nil {
				return "", err
			}
			outcome.FileName = gotName
			outcome.Records = mf.Records
			outcome.Summary = summary
			c.Logf("I-V analysis: %v", summary)

			if cfg.Classifier != nil {
				_, mlSpan := phase(c, "ml.classify", trace.ClassAnalysis)
				err := func() error {
					e, i := analysis.FromRecords(mf.Records)
					feats, err := ml.Features(e, i)
					if err != nil {
						return fmt.Errorf("feature extraction: %w", err)
					}
					class, err := cfg.Classifier.Predict(feats)
					if err != nil {
						return fmt.Errorf("classification: %w", err)
					}
					outcome.Classified = true
					outcome.Class = class
					outcome.ClassName = ml.ClassName(class)
					return nil
				}()
				mlSpan.EndErr(err)
				if err != nil {
					return "", err
				}
				c.Logf("ML normality check: %s", outcome.ClassName)
			}
			outcome.VerdictReady = time.Now()
			return fmt.Sprintf("OK %d points", len(mf.Records)), nil
		},
	})

	nb.MustAdd(&workflow.Task{
		ID: "E", Title: "Shut down cross-facility connections",
		DependsOn: []string{"A"},
		Run: func(c *workflow.Context) (string, error) {
			session.BindTraceContext(c.Ctx)
			out, err := session.CallExitJKemAPI()
			if err != nil {
				return "", err
			}
			c.Logf("%s", out)
			if _, err := session.CallDisconnectSP200(); err != nil {
				// The SP200 may legitimately be off if task D never
				// initialised it; log but do not fail teardown.
				c.Logf("SP200 disconnect: %v", err)
			}
			return "OK", nil
		},
	})

	return nb, outcome
}
