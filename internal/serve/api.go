package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/artifact"
	"repro/internal/datagen"
	"repro/internal/experiments"
)

// The v1 HTTP surface. Every resource lives under /v1; legacy
// unversioned paths 308-redirect to their v1 home (308 preserves the
// method and body, so redirect-following clients keep working through
// POST /scenarios and POST /jobs).
//
//	GET    /v1/units/{unit}   one paper unit, rendered text (fig6, table2, ...)
//	POST   /v1/scenarios      ad-hoc scenario spec (JSON body) → rendered text
//	POST   /v1/jobs           {"units": [...], "scenarios": [...]} → {"id": ...}
//	GET    /v1/jobs           paginated summaries: ?state= ?limit= ?cursor=
//	GET    /v1/jobs/{id}      state, timings, inline results, error
//	DELETE /v1/jobs/{id}      cancel (queued or running)
//	GET    /v1/jobs/{id}/events  SSE: backlog replay + live lifecycle events
//	GET    /v1/events         SSE firehose, ?topics= filter (engine, flight, store, fleet, job/*)
//	GET    /v1/stats          counters as JSON
//	GET    /metrics           Prometheus text format (unversioned: infra)
//	GET    /healthz           liveness probe, "ok" (unversioned: infra)
//
// Errors are a uniform JSON envelope with a stable machine-readable
// code, replacing the pre-v1 ad-hoc text bodies:
//
//	{"error": {"code": "unknown_unit", "message": "...", "key": "..."}}
//
// key carries the artifact identity the request resolved to, when it
// resolved to one (compute failures, abandoned flights). Codes:
// method_not_allowed, bad_body, unknown_unit, invalid_scenario,
// invalid_job, unknown_job, invalid_query, draining,
// client_closed_request, compute_failed.
//
// GET /v1/jobs returns a page envelope, newest first:
//
//	{"jobs": [summary...], "next_cursor": "job-00000042"}
//
// Summaries omit timings and results (fetch the job id for those).
// ?state= filters on one lifecycle state, ?limit= bounds the page
// (default 100, max 1000), ?cursor= resumes after a previous page's
// next_cursor. next_cursor is absent on the last page.

// apiError is the body of the v1 error envelope.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Key     string `json:"key,omitempty"`
}

// writeErr writes the uniform v1 error envelope.
func writeErr(w http.ResponseWriter, status int, code, message, key string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error apiError `json:"error"`
	}{apiError{Code: code, Message: message, Key: key}})
}

// statusClientClosedRequest is nginx's conventional 499 — the request
// ended because the requester left, not because either side failed.
const statusClientClosedRequest = 499

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/units/", s.handleUnit)
	mux.HandleFunc("/v1/scenarios", s.handleScenario)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/events", s.handleEvents)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	// Liveness and readiness are deliberately split: /healthz says the
	// process is up (restarting it won't help), /readyz says it wants
	// traffic. A draining or degraded replica is alive but not ready —
	// load balancers should drain it, not kill it. Degraded replicas
	// still answer correctly (memory hits + local compute), so /readyz
	// is advisory, not a correctness gate.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, reason := s.Healthy()
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		io.WriteString(w, reason+"\n")
	})
	for _, p := range []string{"/units/", "/scenarios", "/jobs", "/jobs/", "/stats"} {
		mux.HandleFunc(p, redirectV1)
	}
	return mux
}

// redirectV1 sends a legacy unversioned path to its /v1 home with a
// 308: permanent, method- and body-preserving.
func redirectV1(w http.ResponseWriter, r *http.Request) {
	target := "/v1" + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	http.Redirect(w, r, target, http.StatusPermanentRedirect)
}

// respond writes rendered bytes with provenance headers — the id the
// bytes live under in the store, and how this request obtained them
// (warm / computed / coalesced), which the coalescing tests and the CI
// serving job assert on.
func respond(w http.ResponseWriter, keyID, source string, b []byte) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Reprod-Key", keyID)
	w.Header().Set("X-Reprod-Source", source)
	w.Write(b)
}

// finish maps a flight outcome onto the response.
func (s *Server) finish(w http.ResponseWriter, keyID string, joined bool, b []byte, err error) {
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client is gone (or every client was): nothing useful
			// to write, but account for the abandonment.
			s.abandoned.Add(1)
			writeErr(w, statusClientClosedRequest, "client_closed_request",
				"request cancelled: every requester left", keyID)
			return
		}
		writeErr(w, http.StatusInternalServerError, "compute_failed", err.Error(), keyID)
		return
	}
	source := "computed"
	if joined {
		source = "coalesced"
		s.coalesced.Add(1)
	}
	respond(w, keyID, source, b)
}

// handleUnit answers GET /v1/units/{unit}: the rendered unit, served
// warm from the store when possible, proxied to the key's fleet home
// when cold on a non-home replica, computed (coalesced) otherwise —
// byte-identical to what cmd/repro writes for the same unit at the
// same options.
func (s *Server) handleUnit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "units are fetched with GET", "")
		return
	}
	unit := strings.ToLower(strings.TrimPrefix(r.URL.Path, "/v1/units/"))
	if !validUnit(unit) {
		writeErr(w, http.StatusNotFound, "unknown_unit", fmt.Sprintf("unknown unit %q (known: %s)",
			unit, strings.Join(experiments.VisibleUnitNames(), " ")), "")
		return
	}
	s.unitReqs.Add(1)
	key := experiments.UnitRenderKey(s.cfg.Opt, unit)
	if b, ok := artifact.Peek[[]byte](s.store, key, nil); ok {
		s.warmHits.Add(1)
		respond(w, key.ID(), "warm", b)
		return
	}
	if owner, fwd := s.route(r, key.ID()); fwd {
		if s.proxy(w, r, owner, key.ID(), nil) {
			return
		}
		if b, ok := s.rePeek(key); ok {
			respond(w, key.ID(), "warm", b)
			return
		}
	}
	b, joined, err := s.flights.do(r.Context(), key.ID(), func(fctx context.Context) ([]byte, error) {
		return s.compute(fctx, key.ID(), func(sess *experiments.Session) ([]byte, error) {
			return s.renderUnit(fctx, sess, unit, s.engineEvents)
		})
	})
	s.finish(w, key.ID(), joined, b, err)
}

// rePeek re-checks the warm path after a failed proxy: the proxy spent
// its retry budget in backoff, long enough for a concurrent requester
// (or the rerouted wave in front of us) to have finished the key
// locally — serve those bytes instead of opening a fresh flight.
func (s *Server) rePeek(key artifact.Key) ([]byte, bool) {
	b, ok := artifact.Peek[[]byte](s.store, key, nil)
	if ok {
		s.warmHits.Add(1)
	}
	return b, ok
}

// handleScenario answers POST /v1/scenarios: validate and canonicalize
// the spec, then serve it exactly like a unit — warm from the store,
// proxied to its fleet home, or computed once under coalescing.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "scenarios are submitted with POST", "")
		return
	}
	spec, ok := decodeScenario(w, r)
	if !ok {
		return
	}
	canon, err := spec.Canonical(s.cfg.Opt)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_scenario", err.Error(), "")
		return
	}
	s.scenarioReqs.Add(1)
	key := experiments.ScenarioKey(canon)
	if b, ok := artifact.Peek[[]byte](s.store, key, nil); ok {
		s.warmHits.Add(1)
		respond(w, key.ID(), "warm", b)
		return
	}
	// Marshal the canonical form before routing: route() may consume a
	// tripped owner's single half-open probe slot, which must not be
	// wasted on a request that then fails to serialize. The owner
	// re-canonicalizes (idempotent) and lands on the same key.
	if body, merr := json.Marshal(canon); merr == nil {
		if owner, fwd := s.route(r, key.ID()); fwd {
			if s.proxy(w, r, owner, key.ID(), body) {
				return
			}
			if b, ok := s.rePeek(key); ok {
				respond(w, key.ID(), "warm", b)
				return
			}
		}
	}
	b, joined, err := s.flights.do(r.Context(), key.ID(), func(fctx context.Context) ([]byte, error) {
		return s.compute(fctx, key.ID(), func(sess *experiments.Session) ([]byte, error) {
			return experiments.RunScenario(sess, canon)
		})
	})
	s.finish(w, key.ID(), joined, b, err)
}

// decodeScenario parses a scenario body, bounding it like any request
// body.
func decodeScenario(w http.ResponseWriter, r *http.Request) (Scenario, bool) {
	var spec Scenario
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil || json.Unmarshal(body, &spec) != nil {
		writeErr(w, http.StatusBadRequest, "bad_body", "body is not a JSON scenario spec", "")
		return Scenario{}, false
	}
	return spec, true
}

// maxJobsPageLimit bounds one GET /v1/jobs page.
const maxJobsPageLimit = 1000

// handleJobs answers POST /v1/jobs (submit) and GET /v1/jobs (list,
// paginated).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		state := JobState(q.Get("state"))
		if state != "" && !validJobState(state) {
			writeErr(w, http.StatusBadRequest, "invalid_query",
				fmt.Sprintf("unknown state %q (want queued, running, done, failed or canceled)", state), "")
			return
		}
		limit := 100
		if ls := q.Get("limit"); ls != "" {
			n, err := strconv.Atoi(ls)
			if err != nil || n <= 0 || n > maxJobsPageLimit {
				writeErr(w, http.StatusBadRequest, "invalid_query",
					fmt.Sprintf("limit %q must be an integer in [1, %d]", ls, maxJobsPageLimit), "")
				return
			}
			limit = n
		}
		cursor := q.Get("cursor")
		if cursor != "" && !strings.HasPrefix(cursor, "job-") {
			writeErr(w, http.StatusBadRequest, "invalid_query",
				fmt.Sprintf("cursor %q is not a job id from a previous page", cursor), "")
			return
		}
		page := s.jobs.page(state, limit, cursor)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(page)
	case http.MethodPost:
		if s.draining.Load() {
			writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; submit to another replica", "")
			return
		}
		var req JobRequest
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil || json.Unmarshal(body, &req) != nil {
			writeErr(w, http.StatusBadRequest, "bad_body", "body is not a JSON job request", "")
			return
		}
		if len(req.Units) == 0 && len(req.Scenarios) == 0 {
			writeErr(w, http.StatusBadRequest, "invalid_job", "job selects no units and no scenarios", "")
			return
		}
		for i, u := range req.Units {
			req.Units[i] = strings.ToLower(u)
			if !validUnit(req.Units[i]) {
				writeErr(w, http.StatusBadRequest, "unknown_unit", fmt.Sprintf("unknown unit %q", u), "")
				return
			}
		}
		// Scenarios are validated now (a bad spec fails the submit, not
		// the poll) but canonicalized again at run time; Canonical is
		// deterministic, so the two agree.
		for _, spec := range req.Scenarios {
			if _, err := spec.Canonical(s.cfg.Opt); err != nil {
				writeErr(w, http.StatusBadRequest, "invalid_scenario", err.Error(), "")
				return
			}
		}
		j := s.jobs.add(req)
		s.jobsSubmitted.Add(1)
		s.emitJob(j, "queued", map[string]any{"units": len(req.Units), "scenarios": len(req.Scenarios)})
		go func() {
			defer s.jobs.wg.Done()
			s.pool.ForEach(1, func(int) { s.runJob(j) })
		}()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": j.id})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "jobs are listed with GET and submitted with POST", "")
	}
}

// handleJob answers GET /v1/jobs/{id} (status), DELETE /v1/jobs/{id}
// (cancel), and GET /v1/jobs/{id}/events (SSE lifecycle stream).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	events := false
	if rest, ok := strings.CutSuffix(id, "/events"); ok {
		id, events = rest, true
	}
	j, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown_job", "unknown job "+id, "")
		return
	}
	if events {
		s.handleJobEvents(w, r, j)
		return
	}
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.jobStatus(r.Context(), j))
	case http.MethodDelete:
		j.cancel()
		w.WriteHeader(http.StatusAccepted)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "jobs are polled with GET and cancelled with DELETE", "")
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	ss := s.store.Stats()
	w.Header().Set("Content-Type", "application/json")
	out := map[string]any{
		"unit_requests": st.UnitRequests, "scenario_requests": st.ScenarioRequests,
		"warm_hits": st.WarmHits, "coalesced": st.Coalesced, "computes": st.Computes,
		"abandoned": st.Abandoned, "in_flight": st.InFlight,
		"jobs_submitted": st.JobsSubmitted, "jobs_done": st.JobsDone,
		"jobs_failed": st.JobsFailed, "jobs_canceled": st.JobsCanceled,
		"trace_passes": st.TracePasses, "profile_runs": st.ProfileRuns,
		"renders":              st.Renders,
		"fleet_size":           st.FleetSize,
		"fleet_proxied":        st.Proxied,
		"fleet_proxy_fallback": st.ProxyFallback,
		"fleet_peer_served":    st.PeerServed,
		"fleet_loop_guarded":   st.LoopGuarded,
		"fleet_rerouted":       st.Rerouted,
		"fleet_proxy_retries":  st.ProxyRetries,
		"fleet_peer_unhealthy": st.PeerUnhealthy,
		"breaker_trips":        st.BreakerTrips,
		"breaker_probes":       st.BreakerProbes,
		"breaker_recoveries":   st.BreakerRecoveries,
		"store_degraded":       boolGauge(st.StoreDegraded),
		"store_retries":        st.StoreRetries,
		"store_skipped":        st.StoreSkipped,
		"events_published":     st.EventsPublished,
		"events_dropped":       st.EventsDropped,
		"subscribers":          st.EventSubscribers,
		"dataset_generations":  datagen.Generations(),
		"store_fills":          ss.Fills, "store_mem_hits": ss.MemHits,
		"store_backend_hits": ss.BackendHits, "store_backend_discards": ss.BackendDiscards,
		"store_prefetched":       ss.Prefetched,
		"store_evictions":        ss.Evictions,
		"store_evicted_bytes":    ss.EvictedBytes,
		"store_resident_bytes":   ss.ResidentBytes,
		"store_resident_entries": ss.ResidentEntries,
		"store_mem_hit_ratio":    ss.MemHitRatio(),
		"goroutines":             int64(runtime.NumGoroutine()),
	}
	if len(ss.KindResident) > 0 {
		out["store_kind_resident_bytes"] = ss.KindResident
	}
	if len(ss.KindEvictions) > 0 {
		out["store_kind_evictions"] = ss.KindEvictions
	}
	if len(st.PeerStates) > 0 {
		out["peer_states"] = st.PeerStates
	}
	json.NewEncoder(w).Encode(out)
}

// boolGauge maps a condition onto the 0/1 convention shared by the
// JSON stats and the Prometheus gauge.
func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// handleMetrics exposes the counters in the Prometheus text exposition
// format, matching artifactd's conventions (one counter family per
// field, reprod_ prefix).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	ss := s.store.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counters := []struct {
		name, help string
		value      int64
	}{
		{"reprod_unit_requests_total", "Paper-unit requests received.", st.UnitRequests},
		{"reprod_scenario_requests_total", "Scenario requests received.", st.ScenarioRequests},
		{"reprod_warm_hits_total", "Requests answered straight from the store.", st.WarmHits},
		{"reprod_coalesced_total", "Requests that joined an in-flight computation.", st.Coalesced},
		{"reprod_computes_total", "Computations actually executed.", st.Computes},
		{"reprod_abandoned_total", "Requests whose clients left before the answer.", st.Abandoned},
		{"reprod_fleet_proxied_total", "Cold requests forwarded to their home replica.", st.Proxied},
		{"reprod_fleet_proxy_fallback_total", "Forwards failed over to local compute (owner unreachable).", st.ProxyFallback},
		{"reprod_fleet_peer_served_total", "Requests received from a fleet peer.", st.PeerServed},
		{"reprod_fleet_loop_guarded_total", "Peer-forwarded requests this replica would have routed elsewhere.", st.LoopGuarded},
		{"reprod_fleet_rerouted_total", "Requests routed around a tripped peer breaker.", st.Rerouted},
		{"reprod_breaker_trips_total", "Peer breakers tripped open (fail limit reached).", st.BreakerTrips},
		{"reprod_breaker_probes_total", "Half-open probes sent to tripped peers.", st.BreakerProbes},
		{"reprod_breaker_recoveries_total", "Peer breakers closed again by a successful probe.", st.BreakerRecoveries},
		{"reprod_jobs_submitted_total", "Jobs accepted.", st.JobsSubmitted},
		{"reprod_jobs_done_total", "Jobs finished successfully.", st.JobsDone},
		{"reprod_jobs_failed_total", "Jobs finished with an error.", st.JobsFailed},
		{"reprod_jobs_canceled_total", "Jobs cancelled (client or shutdown).", st.JobsCanceled},
		{"reprod_trace_passes_total", "Sweep trace passes executed.", st.TracePasses},
		{"reprod_profile_runs_total", "Profiling runs executed.", st.ProfileRuns},
		{"reprod_renders_total", "Units rendered.", st.Renders},
		{"reprod_store_fills_total", "Store computations executed.", ss.Fills},
		{"reprod_store_backend_hits_total", "Fills satisfied by the persistence backend.", ss.BackendHits},
		{"reprod_store_prefetched_total", "Entries staged by bulk prefetch.", ss.Prefetched},
		{"reprod_store_evictions_total", "Memory-tier residents evicted under quota.", ss.Evictions},
		{"reprod_store_evicted_bytes_total", "Charged bytes evicted by the memory tier.", ss.EvictedBytes},
		{"reprod_events_published_total", "Events materialized on the event bus.", st.EventsPublished},
		{"reprod_events_dropped_total", "Events shed from slow subscribers' rings.", st.EventsDropped},
	}
	for _, m := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m.name, m.help, m.name, m.name, m.value)
	}
	// reprod_retries_total is labeled by component: the store's HTTP
	// backend and the fleet proxy retry independently.
	fmt.Fprintf(w, "# HELP reprod_retries_total Extra attempts beyond each operation's first.\n# TYPE reprod_retries_total counter\n")
	fmt.Fprintf(w, "reprod_retries_total{component=\"store\"} %d\n", st.StoreRetries)
	fmt.Fprintf(w, "reprod_retries_total{component=\"proxy\"} %d\n", st.ProxyRetries)
	fmt.Fprintf(w, "# HELP reprod_in_flight Computations currently in flight.\n# TYPE reprod_in_flight gauge\nreprod_in_flight %d\n", st.InFlight)
	fmt.Fprintf(w, "# HELP reprod_event_subscribers Event-bus subscribers currently attached.\n# TYPE reprod_event_subscribers gauge\nreprod_event_subscribers %d\n", st.EventSubscribers)
	fmt.Fprintf(w, "# HELP reprod_peer_unhealthy Fleet peers currently sidelined (breaker not closed).\n# TYPE reprod_peer_unhealthy gauge\nreprod_peer_unhealthy %d\n", st.PeerUnhealthy)
	fmt.Fprintf(w, "# HELP reprod_store_degraded Whether the persistence backend is degraded (1 = serving memory hits and computing locally).\n# TYPE reprod_store_degraded gauge\nreprod_store_degraded %d\n", boolGauge(st.StoreDegraded))
	if len(st.PeerStates) > 0 {
		peers := make([]string, 0, len(st.PeerStates))
		for p := range st.PeerStates {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		fmt.Fprintf(w, "# HELP reprod_breaker_state Peer breaker state (0 closed, 1 half-open, 2 open).\n# TYPE reprod_breaker_state gauge\n")
		for _, p := range peers {
			var v int
			switch st.PeerStates[p] {
			case "half-open":
				v = 1
			case "open":
				v = 2
			}
			fmt.Fprintf(w, "reprod_breaker_state{peer=%q} %d\n", p, v)
		}
	}
	fmt.Fprintf(w, "# HELP reprod_fleet_size Fleet membership size (0 = fleet mode off).\n# TYPE reprod_fleet_size gauge\nreprod_fleet_size %d\n", st.FleetSize)
	fmt.Fprintf(w, "# HELP reprod_store_resident_bytes Charged bytes resident in the store's memory tier.\n# TYPE reprod_store_resident_bytes gauge\nreprod_store_resident_bytes %d\n", ss.ResidentBytes)
	fmt.Fprintf(w, "# HELP reprod_store_resident_entries Residents (entries + staged prefetches) in the memory tier.\n# TYPE reprod_store_resident_entries gauge\nreprod_store_resident_entries %d\n", ss.ResidentEntries)
	fmt.Fprintf(w, "# HELP reprod_store_mem_hit_ratio Fraction of store lookups answered by a resident entry.\n# TYPE reprod_store_mem_hit_ratio gauge\nreprod_store_mem_hit_ratio %g\n", ss.MemHitRatio())
	writeKindFamily(w, "reprod_store_kind_resident_bytes", "Resident memory-tier bytes by artefact kind.", "gauge", ss.KindResident)
	writeKindFamily(w, "reprod_store_kind_evictions_total", "Memory-tier evictions by artefact kind.", "counter", ss.KindEvictions)
}

// writeKindFamily emits one labeled Prometheus family with a
// deterministic (sorted) sample order, skipping empty families.
func writeKindFamily(w io.Writer, name, help, typ string, byKind map[string]int64) {
	if len(byKind) == 0 {
		return
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, k := range kinds {
		fmt.Fprintf(w, "%s{kind=%q} %d\n", name, k, byKind[k])
	}
}
