package migrate

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Wire-protocol instrumentation: byte and error counters on the process-wide
// obs registry, and transfer-phase spans on an optionally installed tracer.
// Everything is lazy and lock-cheap so the uninstrumented path costs one
// atomic load.

type wireMetrics struct {
	bytesOut *obs.Counter // migrate_frame_bytes_total{dir} — wire bytes incl. framing
	bytesIn  *obs.Counter
	errors   *obs.CounterVec // migrate_frame_errors_total{dir}
}

var (
	metricsOnce sync.Once
	metrics     *wireMetrics
)

func wire() *wireMetrics {
	metricsOnce.Do(func() {
		reg := obs.Default()
		bytes := reg.CounterVec("migrate_frame_bytes_total",
			"Wire bytes moved by the migration protocol, including framing overhead.", "dir")
		metrics = &wireMetrics{
			bytesOut: bytes.With("out"),
			bytesIn:  bytes.With("in"),
			errors: reg.CounterVec("migrate_frame_errors_total",
				"Frame encode/decode failures by direction.", "dir"),
		}
	})
	return metrics
}

// tracer is the package tracer for SendStateResumable/Receiver.Receive phase
// spans. The obs tracer is nil-safe, so an unset tracer costs a single atomic
// load.
var tracer atomic.Pointer[obs.Tracer]

// SetTracer installs (or, with nil, removes) the tracer that records
// migration transfer phases as spans.
func SetTracer(t *obs.Tracer) { tracer.Store(t) }
