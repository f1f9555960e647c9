package grace

import (
	"time"

	"repro/internal/telemetry"
)

// telScope localizes span recording for one emitter (the comm driver or one
// codec lane): it pins the rank and trace track once.
type telScope struct {
	rank, tid int
}

// start opens a span (zero time when span recording is disabled).
func (s telScope) start() time.Time { return telemetry.Default.Start() }

// end closes a span: histogram + trace via the Default registry.
func (s telScope) end(p telemetry.Phase, detail string, t0 time.Time) {
	telemetry.Default.Observe(p, s.rank, s.tid, detail, t0)
}
