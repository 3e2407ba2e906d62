package serve

import "repro/internal/obs"

// metricsSet holds the serve metric families for one registry; every engine
// sharing a registry shares the families (label values keep policies apart).
type metricsSet struct {
	requests *obs.CounterVec  // serve_requests_total{policy}
	served   *obs.CounterVec  // serve_served_total{policy}
	shed     *obs.CounterVec  // serve_shed_total{policy,reason}
	latency  *obs.QuantileVec // serve_request_ms{policy}
	queue    *obs.GaugeVec    // serve_queue_depth{policy}
	inflight *obs.GaugeVec    // serve_inflight{policy}
}

func newMetricsSet(reg *obs.Registry) *metricsSet {
	if reg == nil {
		return nil
	}
	return &metricsSet{
		requests: reg.CounterVec("serve_requests_total",
			"Requests offered to the serving layer.", "policy"),
		served: reg.CounterVec("serve_served_total",
			"Requests served to completion.", "policy"),
		shed: reg.CounterVec("serve_shed_total",
			"Requests shed at admission, by reason.", "policy", "reason"),
		latency: reg.QuantileVec("serve_request_ms",
			"End-to-end request latency (uplink + queue + service + downlink) in ms.", "policy"),
		queue: reg.GaugeVec("serve_queue_depth",
			"Requests admitted and waiting for a core, summed over satellites.", "policy"),
		inflight: reg.GaugeVec("serve_inflight",
			"Requests admitted and not yet completed.", "policy"),
	}
}
