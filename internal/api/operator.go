package api

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"holmes/internal/fleet"
)

// Every /v1/jobs fleet is a fleet.Operator. By default operators live
// in memory on a frozen virtual clock: a zero submit stamp stays 0 and
// nothing retires on its own. With OperatorMode.JournalDir the same
// operators become the always-on durable fleet layer — wall-clock-driven
// managers behind fsync'd journals — so submits are stamped with real
// time, completed work retires on its own, and a restarted daemon
// recovers every fleet from the directory and resumes scheduling
// bit-identically to a process that never died.

// maxFleets bounds the distinct fleet topologies one daemon manages;
// each holds up to fleet.MaxJobs live jobs and a slice-plan memo.
const maxFleets = 16

// fleetRegistry maps fleet topologies (by fingerprint) to their
// operators. Job IDs resolve by scanning the ≤ maxFleets operators —
// retired jobs stay resolvable that way, which an owner map could not
// offer across a restart.
type fleetRegistry struct {
	mu   sync.Mutex
	ops  map[string]*fleet.Operator
	mode *OperatorMode // nil until EnableOperator: in-memory, default policy
	// submitMu serializes submits end to end: the cross-fleet
	// ID-uniqueness scan and the submit it guards must be one atomic
	// step, or two concurrent submits of the same ID to different fleets
	// both pass the scan and mint a duplicate ID. A dedicated lock
	// rather than mu (which it wraps, never the reverse) so the fsync
	// inside a journaled Submit never blocks registry readers.
	submitMu sync.Mutex
}

func (fr *fleetRegistry) init() {
	fr.ops = make(map[string]*fleet.Operator)
}

// journaled reports whether fleets are durable. Callers hold mu.
func (fr *fleetRegistry) journaled() bool {
	return fr.mode != nil && fr.mode.JournalDir != ""
}

// OperatorMode configures the fleets behind /v1/jobs.
type OperatorMode struct {
	// JournalDir holds one journal (+ snapshot) per fleet, named by the
	// hash of the fleet's topology fingerprint. "" keeps fleets in
	// memory: no journal, no wall clock, no event stream.
	JournalDir string
	// Policy is the scheduling policy for freshly created fleets
	// ("" = fleet.DefaultPolicy). Recovered fleets keep their own.
	Policy string
	// Clock drives every journaled operator (nil = one shared real
	// clock). Tests inject a fleet.FakeClock.
	Clock fleet.Clock
	// SnapshotEvery bounds journal growth per fleet (0 = the operator
	// default).
	SnapshotEvery int
}

// journalName is the per-fleet journal filename: a fixed prefix plus
// the FNV-64a hash of the topology fingerprint (fingerprints themselves
// contain separators unfit for filenames).
func journalName(fp string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(fp))
	return fmt.Sprintf("fleet-%016x.journal", h.Sum64())
}

// EnableOperator configures the fleets behind /v1/jobs and, when
// mode.JournalDir is set, recovers every fleet already journaled there.
// It must be called before the server takes traffic. Returns the
// number of fleets recovered.
func (s *Server) EnableOperator(mode OperatorMode) (int, error) {
	if _, err := fleet.PolicyByName(mode.Policy); err != nil {
		return 0, err
	}
	fr := &s.fleets
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.mode != nil {
		return 0, fmt.Errorf("api: operator mode already enabled")
	}
	if mode.JournalDir == "" {
		fr.mode = &mode
		return 0, nil
	}
	if mode.Clock == nil {
		mode.Clock = fleet.NewRealClock()
	}
	if err := os.MkdirAll(mode.JournalDir, 0o755); err != nil {
		return 0, err
	}

	names, err := filepath.Glob(filepath.Join(mode.JournalDir, "fleet-*.journal"))
	if err != nil {
		return 0, err
	}
	sort.Strings(names)
	recovered := 0
	for _, path := range names {
		spec, ok, err := fleet.PeekSpec(path, "")
		if err != nil {
			return recovered, fmt.Errorf("api: recovering %s: %w", path, err)
		}
		if !ok {
			continue // an empty journal file carries no fleet yet
		}
		topo, err := spec.Topology()
		if err != nil {
			return recovered, fmt.Errorf("api: recovering %s: %w", path, err)
		}
		fp := topo.Fingerprint()
		if _, dup := fr.ops[fp]; dup {
			return recovered, fmt.Errorf("api: journals %s and fleet %s describe the same topology", path, fp)
		}
		op, err := fleet.NewOperator(s.pool.ShardFor(fp), spec, fleet.OperatorConfig{
			Clock:         mode.Clock,
			Journal:       path,
			SnapshotEvery: mode.SnapshotEvery,
			Events:        s.events,
		})
		if err != nil {
			return recovered, fmt.Errorf("api: recovering %s: %w", path, err)
		}
		fr.ops[fp] = op
		recovered++
	}
	fr.mode = &mode
	return recovered, nil
}

// CloseOperators cleanly shuts every operator down: retire what is
// retirable, cut a final snapshot, close the journals (a no-op for
// in-memory fleets). Part of the graceful-shutdown path; a crash
// instead leaves journals the recovery path replays.
func (s *Server) CloseOperators() error {
	return s.eachOperator((*fleet.Operator).Close)
}

// eachOperator runs fn on every operator and returns the first error.
func (s *Server) eachOperator(fn func(*fleet.Operator) error) error {
	_, ops := s.operators()
	var first error
	for _, op := range ops {
		if err := fn(op); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// operatorFor resolves (or creates, when room allows) the operator
// owning the given fleet. Caller passes the validated topology
// fingerprint. The requested policy applies to fresh fleets and must
// match on existing ones (409 otherwise): a fleet's policy is fixed
// when it is created, never switched by a submit. Fresh fleets are
// journaled only when the registry is; in-memory fleets get no event
// hub, so /v1/events stays silent for them.
func (s *Server) operatorFor(fp string, spec fleet.Spec, policy string) (*fleet.Operator, error) {
	fr := &s.fleets
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if op, ok := fr.ops[fp]; ok {
		if policy != "" && policy != op.Policy() {
			return nil, errf(http.StatusConflict,
				"jobs: fleet %s schedules under policy %q; a submit cannot switch it to %q", fp, op.Policy(), policy)
		}
		return op, nil
	}
	if len(fr.ops) >= maxFleets {
		return nil, errf(http.StatusTooManyRequests, "jobs: daemon already manages %d fleets", maxFleets)
	}
	cfg := fleet.OperatorConfig{Policy: policy}
	if cfg.Policy == "" && fr.mode != nil {
		cfg.Policy = fr.mode.Policy
	}
	if fr.journaled() {
		cfg.Clock = fr.mode.Clock
		cfg.Journal = filepath.Join(fr.mode.JournalDir, journalName(fp))
		cfg.SnapshotEvery = fr.mode.SnapshotEvery
		cfg.Events = s.events
	}
	// The fleet lives on the shard that owns its topology fingerprint,
	// so its slice plans share that shard's communicator cache.
	op, err := fleet.NewOperator(s.pool.ShardFor(fp), spec, cfg)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "jobs: %v", err)
	}
	fr.ops[fp] = op
	return op, nil
}

// dropIfEmpty retires an in-memory fleet whose last job was cancelled,
// so idle topologies neither count against maxFleets nor pin their
// plan memos. It holds submitMu: every submit holds that lock from
// resolving its operator through admitting the job, so the emptiness
// re-check below cannot race a submit joining the fleet being dropped.
// Journaled fleets stay registered — their journal outlives the job set.
func (s *Server) dropIfEmpty(fp string, op *fleet.Operator) {
	fr := &s.fleets
	fr.submitMu.Lock()
	defer fr.submitMu.Unlock()
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if !fr.journaled() && fr.ops[fp] == op && op.Len() == 0 {
		delete(fr.ops, fp)
	}
}

// operators snapshots the operator set ordered by fingerprint, the
// deterministic scan order for job-ID resolution (at most maxFleets
// entries, so a scan is bounded and cheap).
func (s *Server) operators() ([]string, map[string]*fleet.Operator) {
	fr := &s.fleets
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fps := make([]string, 0, len(fr.ops))
	ops := make(map[string]*fleet.Operator, len(fr.ops))
	for fp, op := range fr.ops {
		fps = append(fps, fp)
		ops[fp] = op
	}
	sort.Strings(fps)
	return fps, ops
}

// findJob resolves a job ID — live or retired — to its owning operator
// by scanning the (≤ maxFleets) operators in fingerprint order.
func (s *Server) findJob(id string) (*fleet.Operator, string, bool) {
	fps, ops := s.operators()
	for _, fp := range fps {
		if ops[fp].Has(id) {
			return ops[fp], fp, true
		}
	}
	return nil, "", false
}
