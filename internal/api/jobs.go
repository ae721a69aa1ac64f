package api

import (
	"encoding/json"
	"net/http"
	"strings"

	"holmes/internal/fleet"
)

// The /v1/jobs surface is the fleet scheduler behind HTTP: clients
// submit jobs against a shared fleet topology, poll their placement, and
// cancel. Every fleet is a fleet.Operator (operator.go): in memory on
// the frozen virtual clock by default, journaled and wall-clock-driven
// once OperatorMode.JournalDir is set. The schedule a poll observes is
// the deterministic replay of the fleet's live job set ordered by
// (submit, id) — so any interleaving of concurrent submissions
// converges to the same schedule as a sequential replay of the same
// trace, and a storm of pollers on a 4-shard pool reads bit-identical
// placements.
//
//	POST   /v1/jobs       {"fleet": {...}, "job": {...}}  submit one job
//	GET    /v1/jobs       every fleet's current schedule
//	GET    /v1/jobs/{id}  one job's placement
//	DELETE /v1/jobs/{id}  cancel one job

// JobRequest is the envelope of POST /v1/jobs.
type JobRequest struct {
	Fleet fleet.Spec `json:"fleet"`
	Job   fleet.Job  `json:"job"`
	// Policy optionally names the fleet's scheduling policy (fifo,
	// priority, edf, fair). It applies when the submit creates the
	// fleet; on an existing fleet a differing policy is a 409 — one
	// fleet schedules under one policy at a time.
	Policy string `json:"policy,omitempty"`
}

// JobResponse is the outcome of POST /v1/jobs and GET /v1/jobs/{id}:
// the job's slot in the fleet's current schedule.
type JobResponse struct {
	// Fleet identifies the owning fleet by topology fingerprint.
	Fleet string `json:"fleet"`
	// Jobs counts the fleet's live jobs.
	Jobs      int             `json:"jobs"`
	Placement fleet.Placement `json:"placement"`
	// State is the job's state at the fleet's instant: queued, running,
	// done, or unplaced.
	State string `json:"state,omitempty"`
	// Now is the fleet's wall-clock instant (always 0, so omitted, for
	// an in-memory fleet).
	Now float64 `json:"now,omitempty"`
	// Policy names the fleet's scheduling policy.
	Policy string `json:"policy,omitempty"`
	// Makespan / Utilization summarize the fleet's whole schedule.
	Makespan    float64 `json:"makespan"`
	Utilization float64 `json:"utilization"`
}

// CancelResponse is the outcome of DELETE /v1/jobs/{id}.
type CancelResponse struct {
	Job      string `json:"job"`
	Canceled bool   `json:"canceled"`
	Jobs     int    `json:"jobs"`
}

// FleetSchedule is one fleet's slot in GET /v1/jobs.
type FleetSchedule struct {
	Fleet    string          `json:"fleet"`
	Jobs     int             `json:"jobs"`
	Schedule *fleet.Schedule `json:"schedule"`
	// Policy / Now / Done describe the fleet: its scheduling policy,
	// wall-clock instant, and retired-job count (Now and Done stay 0,
	// so omitted, for an in-memory fleet).
	Policy string  `json:"policy,omitempty"`
	Now    float64 `json:"now,omitempty"`
	Done   int     `json:"done,omitempty"`
}

// FleetsResponse is the outcome of GET /v1/jobs.
type FleetsResponse struct {
	Version string          `json:"version"`
	Fleets  []FleetSchedule `json:"fleets"`
}

// handleJobSubmit admits one job into its fleet and answers with the
// job's slot in the recomputed schedule.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer body.Close()
	var req JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, decodeStatus(err), "jobs: %v", err)
		return
	}
	topo, err := req.Fleet.Topology()
	if err != nil {
		writeError(w, http.StatusBadRequest, "jobs: %v", err)
		return
	}
	if topo.NumNodes() > maxNodes {
		writeError(w, http.StatusBadRequest, "jobs: %d nodes exceeds the per-fleet limit of %d", topo.NumNodes(), maxNodes)
		return
	}
	fp := topo.Fingerprint()
	if req.Policy != "" {
		if _, err := fleet.PolicyByName(req.Policy); err != nil {
			writeError(w, http.StatusBadRequest, "jobs: %v", err)
			return
		}
	}

	op, err := s.admit(req, fp)
	if err != nil {
		writeError(w, errStatus(err), "%s", err)
		return
	}
	writeJob(w, op, fp, req.Job.ID)
}

// admit runs the check-then-submit under the registry's submit lock, so
// the cross-fleet ID-uniqueness scan and the submit it authorizes are
// one atomic step. The answer is rendered after the lock drops.
func (s *Server) admit(req JobRequest, fp string) (*fleet.Operator, error) {
	s.fleets.submitMu.Lock()
	defer s.fleets.submitMu.Unlock()
	// Job IDs are global: the ID is the only handle GET and DELETE take.
	// Same-fleet duplicates fall through to the operator's own check.
	if _, owner, ok := s.findJob(req.Job.ID); ok && owner != fp {
		return nil, errf(http.StatusConflict, "jobs: job %q already exists in fleet %s", req.Job.ID, owner)
	}
	op, err := s.operatorFor(fp, req.Fleet, req.Policy)
	if err != nil {
		return nil, err
	}
	if op.Len() >= fleet.MaxJobs {
		return nil, errf(http.StatusTooManyRequests, "jobs: fleet already holds %d jobs (the per-fleet limit)", fleet.MaxJobs)
	}
	if err := op.Submit(req.Job); err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "already") {
			status = http.StatusConflict
		}
		return nil, errf(status, "jobs: %v", err)
	}
	return op, nil
}

// writeJob answers with one job's placement, state, and the owning
// fleet's schedule summary.
func writeJob(w http.ResponseWriter, op *fleet.Operator, fp, id string) {
	st, ok, err := op.Job(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "jobs: %v", err)
		return
	}
	if !ok {
		// Cancelled between lookup and replay.
		writeError(w, http.StatusNotFound, "jobs: no such job %q", id)
		return
	}
	sched, err := op.Schedule()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "jobs: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, JobResponse{
		Fleet:       fp,
		Jobs:        op.Len(),
		Placement:   st.Placement,
		State:       st.State,
		Now:         op.Now(),
		Policy:      op.Policy(),
		Makespan:    sched.Makespan,
		Utilization: sched.Utilization,
	})
}

// handleJobGet answers one job's current placement. Live and retired
// jobs both resolve: a client polling a finished job sees state "done"
// with its final placement, not a 404.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	op, fp, ok := s.findJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "jobs: no such job %q", id)
		return
	}
	writeJob(w, op, fp, id)
}

// handleJobCancel removes one live job from its fleet. Retired jobs
// refuse with 409: their outcome is history, not cancellable work.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	op, fp, ok := s.findJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "jobs: no such job %q", id)
		return
	}
	canceled, err := op.Cancel(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "jobs: %v", err)
		return
	}
	if !canceled {
		if op.Has(id) {
			writeError(w, http.StatusConflict, "jobs: job %q already ran to completion", id)
		} else {
			// A concurrent cancel of the same ID won.
			writeError(w, http.StatusNotFound, "jobs: no such job %q", id)
		}
		return
	}
	jobs := op.Len()
	if jobs == 0 {
		s.dropIfEmpty(fp, op)
	}
	writeJSON(w, http.StatusOK, CancelResponse{Job: id, Canceled: true, Jobs: jobs})
}

// handleJobsList answers every fleet's schedule plus its policy, wall
// clock, and retired-job count, fleets ordered by fingerprint so
// concurrent observers read stable output.
func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	fps, ops := s.operators()
	resp := FleetsResponse{Version: Version, Fleets: []FleetSchedule{}}
	for _, fp := range fps {
		op := ops[fp]
		sched, err := op.Schedule()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "jobs: fleet %s: %v", fp, err)
			return
		}
		resp.Fleets = append(resp.Fleets, FleetSchedule{
			Fleet:    fp,
			Jobs:     op.Len(),
			Schedule: sched,
			Policy:   op.Policy(),
			Now:      op.Now(),
			Done:     len(op.Done()),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
