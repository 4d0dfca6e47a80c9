package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ice/internal/sched"
)

// monitor is the node's federation heartbeat: every HeartbeatEvery it
// exchanges state with each peer, then evaluates transitions —
// silence past FailoverAfter triggers the fencing probe and either a
// failover (gateway dead, lab alive) or a partition (both dark);
// renewed contact heals; drained adopted jobs hand leadership back.
func (n *Node) monitor() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
		}
		n.tick()
	}
}

func (n *Node) tick() {
	peers := n.snapshotPeers()
	var wg sync.WaitGroup
	for _, ps := range peers {
		wg.Add(1)
		go func(ps *peerState) {
			defer wg.Done()
			st, err := n.sendHeartbeat(ps.peer)
			if err != nil {
				n.noteSilent(ps.peer.Facility)
				return
			}
			n.observeState(ps.peer.Facility, st)
		}(ps)
	}
	wg.Wait()
	n.evaluate()
	n.updateGauges()
}

// sendHeartbeat POSTs our state to the peer and returns theirs.
func (n *Node) sendHeartbeat(p Peer) (stateMsg, error) {
	body, err := json.Marshal(n.state())
	if err != nil {
		return stateMsg{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ReplTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.URL+"/v1/cluster/heartbeat", bytes.NewReader(body))
	if err != nil {
		return stateMsg{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return stateMsg{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return stateMsg{}, fmt.Errorf("heartbeat: %s", resp.Status)
	}
	var st stateMsg
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return stateMsg{}, err
	}
	return st, nil
}

// fetchState GETs a peer's state (used at join, before we advertise).
func (n *Node) fetchState(p Peer) (stateMsg, error) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ReplTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/v1/cluster/state", nil)
	if err != nil {
		return stateMsg{}, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return stateMsg{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return stateMsg{}, fmt.Errorf("state: %s", resp.Status)
	}
	var st stateMsg
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return stateMsg{}, err
	}
	return st, nil
}

// observeState folds a peer's advertisement into the peer table; a
// peer heard from is reachable, and a previously partitioned peer
// heals (replication backlog flushes).
func (n *Node) observeState(facility string, st stateMsg) {
	n.mu.Lock()
	ps, ok := n.peers[facility]
	if !ok {
		n.mu.Unlock()
		return
	}
	healed := ps.partitioned
	ps.lastSeen = time.Now()
	ps.everSeen = true
	ps.reachable = true
	ps.partitioned = false
	ps.adoptBlocked = false
	ps.term = st.Term
	ps.quarantined = append([]string(nil), st.Quarantined...)
	if len(st.Quarantined) > 0 {
		ps.quarantinedAt = time.Now()
	}
	leading := make(map[string]uint64, len(st.Leading))
	for fac, term := range st.Leading {
		leading[fac] = term
	}
	ps.leading = leading
	if t, held := st.Leading[n.cfg.Facility]; held && t > n.maxHomeTerm {
		n.maxHomeTerm = t
	}
	n.mu.Unlock()
	if healed {
		n.span.Event("cluster.heal", "peer", facility)
		n.metrics.Counter("cluster.heals").Inc()
	}
	n.rep.markUp(facility, true)
}

// markSeen is the lightweight liveness update for non-heartbeat
// contact (a replication batch landing here proves the sender lives).
func (n *Node) markSeen(facility string) {
	n.mu.Lock()
	ps, ok := n.peers[facility]
	if !ok {
		n.mu.Unlock()
		return
	}
	healed := ps.partitioned
	ps.lastSeen = time.Now()
	ps.everSeen = true
	ps.reachable = true
	ps.partitioned = false
	n.mu.Unlock()
	if healed {
		n.span.Event("cluster.heal", "peer", facility)
		n.metrics.Counter("cluster.heals").Inc()
	}
	n.rep.markUp(facility, true)
}

// noteSilent records a failed heartbeat round trip.
func (n *Node) noteSilent(facility string) {
	n.mu.Lock()
	if ps, ok := n.peers[facility]; ok {
		ps.reachable = false
	}
	n.mu.Unlock()
	n.rep.markUp(facility, false)
}

// evaluate applies the federation state machine after a heartbeat
// round: fencing-gated failover or partition marking for silent
// peers, leadership handback for drained adoptions, and home-claim
// when an adopter has released our facility.
func (n *Node) evaluate() {
	now := time.Now()
	n.mu.Lock()
	type decision struct {
		ps        *peerState
		silentFor time.Duration
	}
	var silent []decision
	for _, ps := range n.peers {
		if ps.reachable {
			continue
		}
		last := ps.lastSeen
		if !ps.everSeen {
			last = n.startedAt
		}
		if d := now.Sub(last); d >= n.cfg.FailoverAfter {
			if _, alreadyLead := n.leading[ps.peer.Facility]; !alreadyLead {
				silent = append(silent, decision{ps: ps, silentFor: d})
			}
		}
	}
	n.mu.Unlock()

	for _, dec := range silent {
		ps := dec.ps
		probeErr := n.probe(ps.peer)
		// The probe ran unlocked: a heartbeat or replication batch that
		// landed meanwhile proves the peer's gateway is back (a healed
		// WAN, not a crash), so neither adopt nor mark a partition.
		n.mu.Lock()
		if ps.reachable {
			n.mu.Unlock()
			continue
		}
		if probeErr == nil {
			n.mu.Unlock()
			// Fencing passed: the facility's lab answers. Its gateway must
			// still be silent now that the probe proved the path — a WAN
			// that healed just before the probe reaches a live gateway.
			if st, err := n.sendHeartbeat(ps.peer); err == nil {
				n.observeState(ps.peer.Facility, st)
				continue
			}
			// A crashed gateway, not a severed WAN. Adopt.
			n.adoptFacility(ps)
		} else {
			first := !ps.partitioned
			ps.partitioned = true
			n.mu.Unlock()
			if first {
				n.span.Event("cluster.partition", "peer", ps.peer.Facility, "silent_for", dec.silentFor.String())
				n.metrics.Counter("cluster.partitions").Inc()
			}
		}
	}

	n.handback()
	n.claimHomeIfFree()
}

// probe runs the peer's fencing check: reach the facility's lab.
func (n *Node) probe(p Peer) error {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ReplTimeout)
	defer cancel()
	if p.Probe != nil {
		return p.Probe(ctx)
	}
	if p.LabAddr == "" {
		return fmt.Errorf("cluster: no lab probe configured for %s", p.Facility)
	}
	conn, err := n.cfg.Dial(p.LabAddr)
	if err != nil {
		return err
	}
	conn.Close()
	return nil
}

// adoptFacility performs the failover: raise the facility's term,
// replay the replicated WAL, install the replicated checkpoint
// journals, and re-enqueue every non-terminal job locally. Each
// adopted job resumes through the normal workflow Restore path —
// completed tasks are skipped, so the drill's audit journal shows
// every liquid-handling action exactly once.
func (n *Node) adoptFacility(ps *peerState) {
	fac := ps.peer.Facility
	// Failover never adopts jobs onto a known-quarantined instrument:
	// if the dead gateway's last heartbeat advertised sick instruments,
	// its jobs would land straight back on the same wedged lab. Hold
	// adoption until the advertisement ages out (QuarantineHold); the
	// fencing probe still gates after that.
	n.mu.Lock()
	quarantined := ps.quarantined
	heldBack := len(quarantined) > 0 && time.Since(ps.quarantinedAt) < n.cfg.QuarantineHold
	firstBlock := heldBack && !ps.adoptBlocked
	ps.adoptBlocked = heldBack
	n.mu.Unlock()
	if heldBack {
		if firstBlock {
			n.span.Event("cluster.failover.held",
				"facility", fac,
				"quarantined", strings.Join(quarantined, ","))
			n.metrics.Counter("cluster.failovers.held").Inc()
		}
		return
	}
	items, err := n.store.Read(fac)
	if err != nil {
		n.span.Event("cluster.failover.error", "facility", fac, "error", err.Error())
		return
	}
	recs, journals := foldStream(items)
	jobs := sched.FoldWALRecords(recs)

	maxTerm := ps.term
	for _, rec := range recs {
		if rec.Term > maxTerm {
			maxTerm = rec.Term
		}
	}
	n.mu.Lock()
	if _, already := n.leading[fac]; already {
		n.mu.Unlock()
		return
	}
	n.leading[fac] = maxTerm + 1
	ps.adopted = true
	ps.partitioned = false
	n.mu.Unlock()

	adopted := 0
	for _, job := range jobs {
		if job.State.Terminal() {
			continue
		}
		if _, known := n.sch.Job(job.ID); known {
			continue
		}
		var lines [][]byte
		for _, l := range journals[job.ID] {
			lines = append(lines, l)
		}
		if err := n.installJournal(job.ID, lines); err != nil {
			n.span.Event("cluster.failover.error", "job", job.ID, "error", err.Error())
			continue
		}
		j := *job
		if j.Spec.Facility == "" {
			j.Spec.Facility = fac
		}
		if err := n.sch.Adopt(j); err != nil {
			n.span.Event("cluster.failover.error", "job", j.ID, "error", err.Error())
			continue
		}
		adopted++
	}
	n.span.Event("cluster.failover",
		"facility", fac,
		"term", strconv.FormatUint(maxTerm+1, 10),
		"jobs", strconv.Itoa(adopted))
	n.metrics.Counter("cluster.failovers").Inc()
}

// handback releases an adopted facility once its jobs have drained
// and its own gateway is back: the restarted gateway claims home
// leadership at a higher term on its next heartbeat round.
func (n *Node) handback() {
	n.mu.Lock()
	var release []string
	for fac := range n.leading {
		if fac == n.cfg.Facility {
			continue
		}
		ps, ok := n.peers[fac]
		if !ok || !ps.reachable {
			continue
		}
		live := false
		for _, job := range n.sch.Jobs() {
			if !job.State.Terminal() && facilityOfJob(job.ID) == fac {
				live = true
				break
			}
		}
		if !live {
			release = append(release, fac)
		}
	}
	for _, fac := range release {
		delete(n.leading, fac)
		if ps, ok := n.peers[fac]; ok {
			ps.adopted = false
		}
	}
	n.mu.Unlock()
	for _, fac := range release {
		n.span.Event("cluster.handback", "facility", fac)
	}
}

// claimHomeIfFree takes home leadership once no peer claims it — the
// normal case at startup, or after an adopter's handback.
func (n *Node) claimHomeIfFree() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.leading[n.cfg.Facility]; ok {
		return
	}
	for _, ps := range n.peers {
		if _, held := ps.leading[n.cfg.Facility]; held {
			// A peer's last advertisement still claims our facility:
			// even if it is unreachable right now, claiming would risk
			// split-brain on our own instruments. Wait for contact.
			return
		}
	}
	n.claimHomeLocked(n.maxHomeTerm)
	n.span.Event("cluster.claim", "facility", n.cfg.Facility)
}
