package service

// Batch audit job endpoints, mounted when Server.Jobs is configured:
//
//	POST   /v1/jobs               submit a whole-table audit (202 + job id)
//	GET    /v1/jobs               list jobs in submission order
//	GET    /v1/jobs/{id}          poll status and progress
//	GET    /v1/jobs/{id}/results  page through findings (?page=&page_size=)
//	DELETE /v1/jobs/{id}          cancel an in-flight job / delete a finished one
//
// Backpressure reuses the resilience conventions: a full queue answers
// 429 with a Retry-After hint, exactly like the in-flight limiter.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/envelope"
	"repro/internal/jobs"
	"repro/internal/resilience"
	"repro/internal/semantic"
)

const (
	defaultResultsPageSize = 100
	maxResultsPageSize     = 1000
)

// jobSubmitRequest is the body of POST /v1/jobs. Exactly one of columns
// (the /v1/check-table shape, audited asynchronously) and database (a
// whole-database audit streamed from the DSN) is given.
type jobSubmitRequest struct {
	Columns map[string][]string `json:"columns"`
	// Hints maps column names onto semantic-domain names (email, phone,
	// zip, ...) to run format checks alongside the detectors. Database
	// submissions derive hints from schema metadata automatically.
	Hints         map[string]string `json:"hints,omitempty"`
	Database      *jobDBRequest     `json:"database,omitempty"`
	MinConfidence float64           `json:"min_confidence"`
}

// jobDBRequest names the database a whole-database audit streams from.
type jobDBRequest struct {
	// Driver is the database/sql driver name; empty selects the in-tree
	// in-memory driver.
	Driver string `json:"driver,omitempty"`
	DSN    string `json:"dsn"`
	// Tables optionally restricts the audit.
	Tables []string `json:"tables,omitempty"`
}

// jobStatus is the wire form of a job's state (findings ride on the
// results endpoint, not here, so polling stays cheap).
type jobStatus struct {
	ID            string  `json:"id"`
	Status        string  `json:"status"`
	ColumnsTotal  int     `json:"columns_total"`
	ColumnsDone   int     `json:"columns_done"`
	FindingsTotal int     `json:"findings_total"`
	Progress      float64 `json:"progress"`
	Resumes       int     `json:"resumes,omitempty"`
	Error         string  `json:"error,omitempty"`
	SubmittedUnix int64   `json:"submitted_unix,omitempty"`
	StartedUnix   int64   `json:"started_unix,omitempty"`
	FinishedUnix  int64   `json:"finished_unix,omitempty"`
}

func jobStatusFrom(st *jobs.State) jobStatus {
	js := jobStatus{
		ID:            st.ID,
		Status:        string(st.Status),
		ColumnsTotal:  st.ColumnsTotal,
		ColumnsDone:   st.ColumnsDone,
		FindingsTotal: st.FindingsTotal(),
		Resumes:       st.Resumes,
		Error:         st.Error,
		SubmittedUnix: st.SubmittedUnix,
		StartedUnix:   st.StartedUnix,
		FinishedUnix:  st.FinishedUnix,
	}
	if st.ColumnsTotal > 0 {
		js.Progress = float64(st.ColumnsDone) / float64(st.ColumnsTotal)
	}
	return js
}

// jobFinding is one paged finding with its column attribution.
type jobFinding struct {
	Column string `json:"column"`
	Finding
}

// jobResultsResponse is one page of findings. Findings are ordered by
// column name (the deterministic audit order), then in detector order
// within a column; the order is stable across polls and restarts, so
// pages never shift under a paginating client.
type jobResultsResponse struct {
	ID            string       `json:"id"`
	Status        string       `json:"status"`
	Complete      bool         `json:"complete"`
	Page          int          `json:"page"`
	PageSize      int          `json:"page_size"`
	TotalFindings int          `json:"total_findings"`
	Findings      []jobFinding `json:"findings"`
	NextPage      *int         `json:"next_page,omitempty"`
}

// jobsEnabled answers 501 when the batch subsystem is not configured.
func (s *Server) jobsEnabled(w http.ResponseWriter, r *http.Request) bool {
	if s.Jobs == nil {
		resilience.WriteError(w, r, http.StatusNotImplemented,
			"batch jobs disabled (start the server with a jobs directory)")
		return false
	}
	return true
}

// writeJobErr maps jobs-package errors onto the API's status codes.
func writeJobErr(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		resilience.WriteError(w, r, http.StatusNotFound, "no such job")
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(resilience.DefaultRetryAfterSeconds))
		resilience.WriteError(w, r, http.StatusTooManyRequests, "job queue full, retry later")
	case errors.Is(err, jobs.ErrClosed):
		resilience.WriteError(w, r, http.StatusServiceUnavailable, "server draining, not accepting jobs")
	case errors.Is(err, jobs.ErrTooLarge):
		resilience.WriteError(w, r, http.StatusRequestEntityTooLarge, err.Error())
	case errors.Is(err, jobs.ErrDatabase):
		resilience.WriteError(w, r, http.StatusBadRequest, err.Error())
	case errors.Is(err, envelope.ErrIntegrity):
		resilience.WriteError(w, r, http.StatusInternalServerError, "job record corrupt on disk")
	default:
		resilience.WriteError(w, r, http.StatusInternalServerError, err.Error())
	}
}

// handleJobs serves POST (submit) and GET (list) on /v1/jobs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w, r) {
		return
	}
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	case http.MethodGet:
		s.handleJobList(w, r)
	default:
		resilience.WriteError(w, r, http.StatusMethodNotAllowed, "POST or GET only")
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.ready(w, r) == nil {
		return
	}
	var req jobSubmitRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	for col, hint := range req.Hints {
		if !semantic.KnownDomain(hint) {
			resilience.WriteError(w, r, http.StatusBadRequest,
				fmt.Sprintf("unknown domain hint %q for column %q", hint, col))
			return
		}
	}
	if req.Database != nil {
		s.handleJobSubmitDB(w, r, &req)
		return
	}
	if len(req.Columns) == 0 {
		resilience.WriteError(w, r, http.StatusBadRequest, "columns is empty")
		return
	}
	total := 0
	for _, vs := range req.Columns {
		total += len(vs)
	}
	if s.MaxTableValues > 0 && total > s.MaxTableValues {
		resilience.WriteError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("table has %d values, at most %d per job", total, s.MaxTableValues))
		return
	}
	st, err := s.Jobs.SubmitTable(r.Context(), req.Columns, req.Hints, req.MinConfidence)
	if err != nil {
		writeJobErr(w, r, err)
		return
	}
	resilience.WriteJSON(w, http.StatusAccepted, jobStatusFrom(st))
}

// handleJobSubmitDB admits a whole-database audit. The capability is off
// by default — a DSN reaches out of the process, so operators opt in with
// -db-audit — and the submission introspects the database synchronously,
// failing fast on unreachable DSNs or bad table filters.
func (s *Server) handleJobSubmitDB(w http.ResponseWriter, r *http.Request, req *jobSubmitRequest) {
	if !s.AllowDBAudit {
		resilience.WriteError(w, r, http.StatusForbidden,
			"database audits disabled (start the server with -db-audit)")
		return
	}
	if len(req.Columns) > 0 {
		resilience.WriteError(w, r, http.StatusBadRequest, "columns and database are mutually exclusive")
		return
	}
	if len(req.Hints) > 0 {
		resilience.WriteError(w, r, http.StatusBadRequest, "database submissions derive hints from the schema; hints is not accepted")
		return
	}
	if req.Database.DSN == "" {
		resilience.WriteError(w, r, http.StatusBadRequest, "database.dsn is empty")
		return
	}
	st, err := s.Jobs.SubmitDB(r.Context(), jobs.DBRequest{
		Driver:        req.Database.Driver,
		DSN:           req.Database.DSN,
		Tables:        req.Database.Tables,
		MinConfidence: req.MinConfidence,
		MaxValues:     s.MaxTableValues,
	})
	if err != nil {
		writeJobErr(w, r, err)
		return
	}
	resilience.WriteJSON(w, http.StatusAccepted, jobStatusFrom(st))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	states, err := s.Jobs.List()
	if err != nil {
		writeJobErr(w, r, err)
		return
	}
	out := struct {
		Jobs []jobStatus `json:"jobs"`
	}{Jobs: make([]jobStatus, 0, len(states))}
	for _, st := range states {
		out.Jobs = append(out.Jobs, jobStatusFrom(st))
	}
	resilience.WriteJSON(w, http.StatusOK, out)
}

// handleJob serves GET (status) and DELETE (cancel / delete) on
// /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w, r) {
		return
	}
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		st, err := s.Jobs.Get(id)
		if err != nil {
			writeJobErr(w, r, err)
			return
		}
		resilience.WriteJSON(w, http.StatusOK, jobStatusFrom(st))
	case http.MethodDelete:
		st, err := s.Jobs.Cancel(id)
		switch {
		case err == nil:
			resilience.WriteJSON(w, http.StatusAccepted, jobStatusFrom(st))
		case errors.Is(err, jobs.ErrTerminal):
			// The job already finished: DELETE removes its record instead.
			if err := s.Jobs.Delete(id); err != nil {
				writeJobErr(w, r, err)
				return
			}
			resilience.WriteJSON(w, http.StatusOK, map[string]string{"id": id, "status": "deleted"})
		default:
			writeJobErr(w, r, err)
		}
	default:
		resilience.WriteError(w, r, http.StatusMethodNotAllowed, "GET or DELETE only")
	}
}

// handleJobResults serves one page of findings on /v1/jobs/{id}/results.
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w, r) {
		return
	}
	if r.Method != http.MethodGet {
		resilience.WriteError(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	page, ok := queryInt(w, r, "page", 0)
	if !ok {
		return
	}
	pageSize, ok := queryInt(w, r, "page_size", defaultResultsPageSize)
	if !ok {
		return
	}
	if pageSize <= 0 {
		pageSize = defaultResultsPageSize
	}
	if pageSize > maxResultsPageSize {
		pageSize = maxResultsPageSize
	}
	st, err := s.Jobs.Get(r.PathValue("id"))
	if err != nil {
		writeJobErr(w, r, err)
		return
	}
	total := st.FindingsTotal()
	// A page past the last starts at the end; testing page first keeps
	// page * pageSize from overflowing.
	start := total
	if page <= total/pageSize {
		start = page * pageSize
	}
	resp := jobResultsResponse{
		ID:            st.ID,
		Status:        string(st.Status),
		Complete:      st.Status == jobs.StatusDone,
		Page:          page,
		PageSize:      pageSize,
		TotalFindings: total,
		Findings:      make([]jobFinding, 0, pageSize),
	}
	// Walk completed columns in audit order, skipping to the page offset
	// without materializing the flattened list.
	skip := start
	for _, cr := range st.Results {
		if len(resp.Findings) == cap(resp.Findings) {
			break
		}
		if skip >= len(cr.Findings) {
			skip -= len(cr.Findings)
			continue
		}
		for _, f := range cr.Findings[skip:] {
			resp.Findings = append(resp.Findings, jobFinding{Column: cr.Column, Finding: f})
			if len(resp.Findings) == cap(resp.Findings) {
				break
			}
		}
		skip = 0
	}
	if start+len(resp.Findings) < total {
		next := page + 1
		resp.NextPage = &next
	}
	resilience.WriteJSON(w, http.StatusOK, resp)
}

// queryInt parses a non-negative integer query parameter, answering 400
// on garbage.
func queryInt(w http.ResponseWriter, r *http.Request, key string, def int) (int, bool) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		resilience.WriteError(w, r, http.StatusBadRequest, fmt.Sprintf("bad %s: want a non-negative integer", key))
		return 0, false
	}
	return v, true
}
