package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"cliffguard/internal/obs"
)

// Serve-side reporting: `cliffreport serve-summary` renders a saved
// cliffguardd /vars body (an obs.MetricsSnapshot, the same shape as the span
// stream's metrics record) plus optional flight-recorder dumps
// (/v1/debug/requestz, /v1/debug/runz envelopes) into the same text/JSON
// report shapes as `summarize`.

// RouteStats aggregates one route × status-class series of the request-
// latency histogram.
type RouteStats struct {
	Route  string  `json:"route"`
	Status string  `json:"status"`
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
}

// TenantStats aggregates one tenant's serving-side series.
type TenantStats struct {
	Tenant            string   `json:"tenant"`
	Runs              uint64   `json:"runs"`
	QueueWaitCount    uint64   `json:"queue_wait_count,omitempty"`
	QueueWaitMeanMs   float64  `json:"queue_wait_mean_ms,omitempty"`
	RunDurationCount  uint64   `json:"run_duration_count,omitempty"`
	RunDurationMeanMs float64  `json:"run_duration_mean_ms,omitempty"`
	SharedHitRatio    *float64 `json:"shared_hit_ratio,omitempty"`
}

// FlightStats summarizes decoded flight-recorder dumps.
type FlightStats struct {
	Requests           int            `json:"requests"`
	RequestsDropped    uint64         `json:"requests_dropped"`
	ErrorRequests      int            `json:"error_requests"`
	Transitions        int            `json:"transitions"`
	TransitionsDropped uint64         `json:"transitions_dropped"`
	RunsByState        map[string]int `json:"runs_by_state,omitempty"`
}

// ServeSummary is the aggregate view `cliffreport serve-summary` renders.
type ServeSummary struct {
	Requests   uint64            `json:"requests"`
	Routes     []RouteStats      `json:"routes"`
	Tenants    []TenantStats     `json:"tenants"`
	Rejections map[string]uint64 `json:"rejections,omitempty"`
	Flight     *FlightStats      `json:"flight,omitempty"`
}

// flight-dump wire shapes, decoded from the /v1 envelope. Locally declared:
// report must not import internal/serve (serve imports report).
type flightEnvelope struct {
	Schema int             `json:"schema"`
	Data   json.RawMessage `json:"data"`
}

type requestzDump struct {
	Dropped  uint64 `json:"dropped"`
	Requests []struct {
		Status int `json:"status"`
	} `json:"requests"`
}

type runzDump struct {
	Dropped     uint64 `json:"dropped"`
	Transitions []struct {
		To string `json:"to"`
	} `json:"transitions"`
}

func decodeFlightData(raw []byte, v any) error {
	var env flightEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return fmt.Errorf("report: decoding flight dump: %w", err)
	}
	if env.Data == nil {
		return fmt.Errorf("report: flight dump has no data envelope")
	}
	if err := json.Unmarshal(env.Data, v); err != nil {
		return fmt.Errorf("report: decoding flight dump data: %w", err)
	}
	return nil
}

// SummarizeServe aggregates a /vars metrics snapshot and optional raw
// requestz/runz envelope dumps (nil = not scraped) into a ServeSummary.
func SummarizeServe(m obs.MetricsSnapshot, requestz, runz []byte) (*ServeSummary, error) {
	s := &ServeSummary{Rejections: m.AdmissionRejections}
	for key, lat := range m.HTTPRequestLatency {
		route, status := obs.SplitServiceKey(key)
		s.Routes = append(s.Routes, RouteStats{Route: route, Status: status, Count: lat.Count, MeanMs: lat.MeanMs})
		s.Requests += lat.Count
	}
	sort.Slice(s.Routes, func(i, j int) bool {
		if s.Routes[i].Route != s.Routes[j].Route {
			return s.Routes[i].Route < s.Routes[j].Route
		}
		return s.Routes[i].Status < s.Routes[j].Status
	})
	ids := map[string]bool{} // every tenant any per-tenant family names
	for _, family := range [][]string{sortedKeys(m.TenantRuns), sortedKeys(m.TenantQueueWait),
		sortedKeys(m.TenantRunDuration), sortedKeys(m.SharedHitsByTenant)} {
		for _, id := range family {
			ids[id] = true
		}
	}
	for _, id := range sortedKeys(ids) {
		wait, dur := m.TenantQueueWait[id], m.TenantRunDuration[id]
		t := TenantStats{
			Tenant:            id,
			Runs:              m.TenantRuns[id],
			QueueWaitCount:    wait.Count,
			QueueWaitMeanMs:   wait.MeanMs,
			RunDurationCount:  dur.Count,
			RunDurationMeanMs: dur.MeanMs,
		}
		hits, misses := m.SharedHitsByTenant[id], m.SharedMissByTenant[id]
		if hits+misses > 0 {
			ratio := float64(hits) / float64(hits+misses)
			t.SharedHitRatio = &ratio
		}
		s.Tenants = append(s.Tenants, t)
	}

	if requestz != nil || runz != nil {
		s.Flight = &FlightStats{}
		if requestz != nil {
			var d requestzDump
			if err := decodeFlightData(requestz, &d); err != nil {
				return nil, err
			}
			s.Flight.Requests = len(d.Requests)
			s.Flight.RequestsDropped = d.Dropped
			for _, r := range d.Requests {
				if r.Status >= 400 {
					s.Flight.ErrorRequests++
				}
			}
		}
		if runz != nil {
			var d runzDump
			if err := decodeFlightData(runz, &d); err != nil {
				return nil, err
			}
			s.Flight.Transitions = len(d.Transitions)
			s.Flight.TransitionsDropped = d.Dropped
			for _, tr := range d.Transitions {
				if s.Flight.RunsByState == nil {
					s.Flight.RunsByState = map[string]int{}
				}
				s.Flight.RunsByState[tr.To]++
			}
		}
	}
	return s, nil
}

// WriteServeSummaryText renders a ServeSummary for humans, in the same style
// as WriteSummaryText.
func WriteServeSummaryText(w io.Writer, s *ServeSummary) error {
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
	}
	p("serve summary (%d requests)", s.Requests)
	if len(s.Routes) > 0 {
		p("  routes:")
		for _, r := range s.Routes {
			p("    %-44s %s  n=%-6d mean=%.3fms", r.Route, r.Status, r.Count, r.MeanMs)
		}
	}
	for _, t := range s.Tenants {
		p("  tenant %-11s runs=%d", t.Tenant, t.Runs)
		if t.QueueWaitCount > 0 {
			p("    queue wait      n=%d mean=%.3fms", t.QueueWaitCount, t.QueueWaitMeanMs)
		}
		if t.RunDurationCount > 0 {
			p("    run duration    n=%d mean=%.3fms", t.RunDurationCount, t.RunDurationMeanMs)
		}
		if t.SharedHitRatio != nil {
			p("    shared memo     %.1f%% hits", *t.SharedHitRatio*100)
		}
	}
	for _, code := range sortedKeys(s.Rejections) {
		p("  rejections %-7s %d", code, s.Rejections[code])
	}
	if s.Flight != nil {
		p("  flight recorder   %d requests (%d dropped, %d errors), %d run transitions (%d dropped)",
			s.Flight.Requests, s.Flight.RequestsDropped, s.Flight.ErrorRequests,
			s.Flight.Transitions, s.Flight.TransitionsDropped)
		for _, st := range sortedKeys(s.Flight.RunsByState) {
			p("    state %-11s %d", st, s.Flight.RunsByState[st])
		}
	}
	return nil
}
