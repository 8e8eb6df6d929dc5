package core

import (
	"fmt"
	"sort"
	"strings"

	"nakika/internal/deploy"
	"nakika/internal/metrics"
	"nakika/internal/pipeline"
	"nakika/internal/transport"
)

// Live script deployment plane. A site's deployment history lives in one
// replicated hard-state record at (site, deploy.StateKey): publishing or
// rolling back is an ordinary versioned write, so PR 4's successor-list
// replication, failover, handoff, and anti-entropy repair propagate
// deployments network-wide with no new replication machinery. Applying a
// record to the local pipeline is a pure function of the record's content
// (generation + script text), so when last-writer-wins converges every
// node's copy of the record, every node's pipeline converges too — a node
// that crashed during propagation catches up the moment repair restores
// its record.
//
// The swap itself is atomic per request, not per node: the executor
// resolves the site's deployed stage exactly once, before the first stage
// runs, and the backward onResponse unwind reuses the *Stage pointers the
// forward pass captured. In-flight requests finish on the generation they
// started with; requests arriving after the swap see only the new one.

// msgDeployApply nudges a peer to re-sync one site's deployment now
// instead of waiting for its next maintenance tick. Best-effort: the
// record itself travels through replication, so a lost nudge only delays
// convergence.
const msgDeployApply = "deploy.apply"

// deployActive is one site's live, swapped-in deployment: the compiled
// stage the executor substitutes for the site's nakika.js, plus the
// generation and script text it was built from (the content key that makes
// applies idempotent).
type deployActive struct {
	gen    uint64
	script string
	stage  *pipeline.Stage
}

// siteDeployment is the pipeline.Executor hook: the one read per request
// that pins the request's deployment generation.
func (n *Node) siteDeployment(site string) (*pipeline.Stage, uint64) {
	n.deployMu.Lock()
	d := n.deployed[site]
	n.deployMu.Unlock()
	if d == nil {
		return nil, 0
	}
	return d.stage, d.gen
}

// Deploy validates and publishes a new script version for site, returning
// the generation it was assigned. The bundle is validated — parse, free
// identifiers against the installed vocabulary, canary compile over no-op
// host operations — before anything is stored, so a bad script is rejected
// before it can propagate anywhere. The write is acknowledged under the
// replication layer's usual durability rule, the local pipeline swaps
// atomically, and peers are nudged to apply it immediately.
func (n *Node) Deploy(site, script, note string) (uint64, error) {
	site = strings.ToLower(strings.TrimSpace(site))
	if site == "" || strings.ContainsAny(site, ":/ \x00") {
		n.deployRej.Add(1)
		return 0, fmt.Errorf("core: deploy: invalid site %q", site)
	}
	if err := pipeline.Validate(site, script, n.cfg.ScriptLimits); err != nil {
		n.deployRej.Add(1)
		return 0, err
	}
	n.deployPubMu.Lock()
	defer n.deployPubMu.Unlock()
	st, _, err := n.deployRecord(site)
	if err != nil {
		return 0, fmt.Errorf("core: deploy %s: %w", site, err)
	}
	gen := st.NextGen()
	st.Add(deploy.Bundle{Gen: gen, Script: script, Note: note})
	st.Active = gen
	if err := n.deployPut(site, deploy.Encode(st)); err != nil {
		return 0, fmt.Errorf("core: deploy %s: %w", site, err)
	}
	// Best effort: a lost index entry is re-added by the next deploy of the
	// site and repaired by syncDeployments on any node holding the record.
	n.indexAdd(site)
	if err := n.applyDeploy(site, st); err != nil {
		return 0, err
	}
	n.broadcastDeploy(site)
	return gen, nil
}

// Rollback re-activates a previously retained generation for site. A
// rollback IS a deploy of a prior version: the record's Active pointer
// moves, the same replicated write and atomic swap follow. Generations
// trimmed past the retention window are rejected.
func (n *Node) Rollback(site string, gen uint64) error {
	site = strings.ToLower(strings.TrimSpace(site))
	n.deployPubMu.Lock()
	defer n.deployPubMu.Unlock()
	st, ok, err := n.deployRecord(site)
	if err != nil {
		return fmt.Errorf("core: rollback %s: %w", site, err)
	}
	if !ok {
		n.deployRej.Add(1)
		return fmt.Errorf("core: rollback: site %q has no deployment record", site)
	}
	if _, retained := st.Find(gen); !retained {
		n.deployRej.Add(1)
		return fmt.Errorf("core: rollback: generation %d of %s is not retained (the %d newest are kept)", gen, site, deploy.Retention)
	}
	st.Active = gen
	if err := n.deployPut(site, deploy.Encode(st)); err != nil {
		return fmt.Errorf("core: rollback %s: %w", site, err)
	}
	if err := n.applyDeploy(site, st); err != nil {
		return err
	}
	n.deployRolled.Add(1)
	n.broadcastDeploy(site)
	return nil
}

// Deployments reports every deployment this node knows about: sites whose
// record it holds (as owner or replica) and sites it has applied a stage
// for. Active is the record's intent, Applied what this node's pipeline
// serves; they differ only while a deploy is propagating.
func (n *Node) Deployments() []deploy.Status {
	recs := make(map[string]deploy.State)
	for _, rec := range n.store.VersionedRecords(func(site, key string) bool {
		return key == deploy.StateKey && site != deploy.IndexSite
	}) {
		if rec.Delete {
			continue
		}
		if st, err := deploy.Decode(rec.Value); err == nil {
			recs[rec.Site] = st
		}
	}
	applied := make(map[string]uint64)
	n.deployMu.Lock()
	for site, d := range n.deployed {
		applied[site] = d.gen
	}
	n.deployMu.Unlock()
	sites := make(map[string]bool, len(recs)+len(applied))
	for site := range recs {
		sites[site] = true
	}
	for site := range applied {
		sites[site] = true
	}
	out := make([]deploy.Status, 0, len(sites))
	for site := range sites {
		st, ok := recs[site]
		if !ok {
			// Applied here but record owned elsewhere (this node is not in
			// the record's replica set): fetch the authoritative copy.
			st, _, _ = n.deployRecord(site)
		}
		status := deploy.Status{Site: site, Active: st.Active, Applied: applied[site]}
		for _, b := range st.Bundles {
			status.Retained = append(status.Retained, deploy.Retained{Gen: b.Gen, Note: b.Note, Bytes: len(b.Script)})
		}
		out = append(out, status)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// syncDeployments reconciles the local pipeline with every deployment
// record reachable from this node: records held locally (replication and
// repair deliver them to the site's replica set) plus the sites listed in
// the replicated deployment index (for nodes outside a record's replica
// set). Maintain calls it every round; it is how a node that crashed or
// was partitioned during a deploy catches up, and it is idempotent —
// applying an already-applied record is a no-op.
func (n *Node) syncDeployments() {
	sites := make(map[string]bool)
	for _, rec := range n.store.VersionedRecords(func(site, key string) bool {
		return key == deploy.StateKey && site != deploy.IndexSite
	}) {
		if !rec.Delete {
			sites[rec.Site] = true
		}
	}
	var indexed map[string]bool
	if n.repEnabled() {
		if v, ok, _ := n.deployGet(deploy.IndexSite); ok {
			if list, err := deploy.DecodeSites(v); err == nil {
				indexed = make(map[string]bool, len(list))
				for _, s := range list {
					indexed[s] = true
					sites[s] = true
				}
			}
		}
	}
	sorted := make([]string, 0, len(sites))
	for site := range sites {
		sorted = append(sorted, site)
	}
	sort.Strings(sorted)
	for _, site := range sorted {
		st, ok, _ := n.deployRecord(site)
		if !ok {
			continue
		}
		n.applyDeploy(site, st)
		if indexed != nil && !indexed[site] {
			// Self-heal the index: this node holds a record the index lost
			// (two concurrent first deploys can race the index write).
			n.indexAdd(site)
		}
	}
}

// applyDeploy makes the local pipeline serve st's active generation. It is
// a pure function of the record's content: if the active bundle is already
// what the pipeline serves, nothing happens, so re-applies from sync loops
// and repair are free, and record convergence implies pipeline
// convergence. The compile happens before the table swap; requests never
// see a half-built stage, and a compile failure leaves the previous
// generation serving.
func (n *Node) applyDeploy(site string, st deploy.State) error {
	n.deployApplyMu.Lock()
	defer n.deployApplyMu.Unlock()
	if st.Active == 0 {
		return nil
	}
	b, ok := st.Find(st.Active)
	if !ok {
		return fmt.Errorf("core: deploy %s: active generation %d not retained in record", site, st.Active)
	}
	n.deployMu.Lock()
	cur := n.deployed[site]
	n.deployMu.Unlock()
	if cur != nil && cur.gen == st.Active && cur.script == b.Script {
		return nil
	}
	stage, err := n.loader.Compile(deploy.StageURL(site, st.Active), site, b.Script)
	if err != nil {
		n.deployCompErr.Add(1)
		return fmt.Errorf("core: deploy %s gen %d: %w", site, st.Active, err)
	}
	n.deployMu.Lock()
	n.deployed[site] = &deployActive{gen: st.Active, script: b.Script, stage: stage}
	n.deployMu.Unlock()
	n.deployApplied.Add(1)
	n.registerDeployGauge(site)
	return nil
}

// AppliedGeneration reports the deployment generation this node's pipeline
// serves for site (0 when none) — the harness asserts convergence with it.
func (n *Node) AppliedGeneration(site string) uint64 {
	n.deployMu.Lock()
	defer n.deployMu.Unlock()
	if d := n.deployed[site]; d != nil {
		return d.gen
	}
	return 0
}

// deployRecord reads site's deployment record through the routed
// replicated read (local when replication is off). A read no owner
// answered is an error, never an empty record: a caller that writes the
// record back would otherwise replace the site's retained generations.
func (n *Node) deployRecord(site string) (deploy.State, bool, error) {
	v, ok, err := n.deployGet(site)
	if err != nil || !ok {
		return deploy.State{}, false, err
	}
	st, err := deploy.Decode(v)
	if err != nil {
		return deploy.State{}, false, nil
	}
	return st, true, nil
}

// deployGet reads the raw record value under (site, deploy.StateKey)
// through the routed read every replicated record takes (local when
// replication is off). Replication RPCs do not filter the internal
// namespace, so routed reads work for deploy records exactly as for lease
// records.
func (n *Node) deployGet(site string) (string, bool, error) {
	return n.repGet(nil, site, deploy.StateKey)
}

// deployPut persists a record value under (site, deploy.StateKey) through
// the routed owner write: durable locally plus on at least one replica
// before the deploy is acknowledged — same contract as lease storage.
func (n *Node) deployPut(site, value string) error {
	return n.repWrite(nil, site, deploy.StateKey, value, false)
}

// indexAdd records site in the replicated deployment index so nodes
// outside the record's replica set can discover it. Self-healing:
// syncDeployments re-adds locally held sites the index lost to a
// concurrent write. An index it could not read is left as it is.
func (n *Node) indexAdd(site string) {
	v, _, err := n.deployGet(deploy.IndexSite)
	if err != nil {
		return
	}
	sites, _ := deploy.DecodeSites(v) // nil for a missing or unreadable index
	for _, s := range sites {
		if s == site {
			return
		}
	}
	sites = append(sites, site)
	n.deployPut(deploy.IndexSite, deploy.EncodeSites(sites))
}

// broadcastDeploy nudges every ring peer to apply site's record now. The
// sweep is sequential in sorted name order so the deterministic harness
// replays it identically; failures are ignored — unreachable peers catch
// up from replication plus their own sync loop.
func (n *Node) broadcastDeploy(site string) {
	if n.tr == nil || n.cfg.Ring == nil {
		return
	}
	peers := append([]string(nil), n.cfg.Ring.Nodes()...)
	sort.Strings(peers)
	for _, p := range peers {
		if p == n.cfg.Name {
			continue
		}
		n.call(p, transport.Message{Type: msgDeployApply, Key: site})
	}
}

// serveDeployRPC answers peers' deployment nudges.
func (n *Node) serveDeployRPC(from string, msg transport.Message) (transport.Message, error) {
	switch msg.Type {
	case msgDeployApply:
		if st, ok, _ := n.deployRecord(msg.Key); ok {
			if err := n.applyDeploy(msg.Key, st); err != nil {
				return transport.Message{}, err
			}
		}
		return transport.Message{Args: []string{"ok"}}, nil
	default:
		return transport.Message{}, fmt.Errorf("core: unknown deploy message %q", msg.Type)
	}
}

// registerDeployGauge exports nakika_deploy_active_generation{site=...}
// the first time a site gets a live deployment on this node. Registration
// is scrape-safe at runtime (the registry serializes), and the callback
// reads the deployment table so rollbacks move the gauge down too.
func (n *Node) registerDeployGauge(site string) {
	if n.reg == nil {
		return
	}
	n.deployMu.Lock()
	if n.deployGauges == nil {
		n.deployGauges = make(map[string]bool)
	}
	if n.deployGauges[site] {
		n.deployMu.Unlock()
		return
	}
	n.deployGauges[site] = true
	n.deployMu.Unlock()
	n.reg.GaugeFunc("nakika_deploy_active_generation", "Deployment generation the site's pipeline serves on this node.",
		metrics.Labels{"site": site}, func() float64 { return float64(n.AppliedGeneration(site)) })
}
