package dsps

import (
	"time"

	"whale/internal/obs"
	"whale/internal/obs/attrib"
	"whale/internal/rdma"
)

// AttribInput captures the engine's stall and utilization signals as a
// bottleneck-analyzer input (internal/obs/attrib). The window is the
// engine's lifetime so far; every counter folded here is cumulative over
// it, so the capture is cheap and may run while the topology is hot.
//
// The live engine emits three worker-component roles: executors (sampled
// overflow residency vs an executed-rate M/D/1 profile), sources (send
// retry/replay backoff) and RDMA rings (ring-full blocking). Relay
// congestion surfaces through the per-link samples; the simulated cluster
// additionally models relays as explicit components.
func (e *Engine) AttribInput() attrib.Input {
	in := attrib.Input{WindowNS: time.Now().UnixNano() - e.startNS}
	winSec := float64(in.WindowNS) / 1e9

	for _, st := range obs.Stages {
		in.Stages = appendStageSample(in.Stages, e.obs.Tracer, st)
	}
	for _, st := range obs.StallStages {
		in.Stages = appendStageSample(in.Stages, e.obs.Tracer, st)
	}

	for _, ls := range e.LinkStats() {
		in.Links = append(in.Links, attrib.LinkSample{
			From: ls.From, To: ls.To,
			CreditWaitNS: ls.CreditWaitNS, QueueWaitNS: ls.QueueWaitNS,
			PausedNS: ls.PausedNS, ThrottledNS: ls.ThrottledNS,
			Sent: ls.Sent, Queued: ls.Queued,
		})
	}

	for _, w := range e.workers {
		var busyNS, executed int64
		var qlen int
		for _, ex := range w.execMap() {
			// The histogram holds sampled executions only: busy time is
			// their mean over every execution.
			n := ex.ops.executed.Value()
			busyNS += int64(ex.ops.execNS.Mean() * float64(n))
			executed += n
			qlen += ex.queueLen()
		}
		ws := attrib.WorkerSample{
			Worker: w.id, Role: attrib.RoleExecutor,
			StallNS: w.execQueueWaitNS.Load(), BusyNS: busyNS,
			QueueLen: float64(qlen),
		}
		if winSec > 0 && busyNS > 0 && executed > 0 {
			ws.ArrivalPerSec = float64(executed) / winSec
			ws.ServicePerSec = float64(executed) / (float64(busyNS) / 1e9)
		}
		in.Workers = append(in.Workers, ws)

		if rn := w.replayNS.Load(); rn > 0 {
			in.Workers = append(in.Workers, attrib.WorkerSample{
				Worker: w.id, Role: attrib.RoleSource, StallNS: rn,
			})
		}
		if cs, ok := w.tr.(interface{ ChannelStats() rdma.StatsSnapshot }); ok {
			snap := cs.ChannelStats()
			if snap.BlockedNS > 0 {
				rs := attrib.WorkerSample{
					Worker: w.id, Role: attrib.RoleRing,
					StallNS: snap.BlockedNS, BusyNS: snap.CQPollNS,
				}
				if occ, ok := w.tr.(interface{ RingOccupancy() int }); ok {
					rs.QueueLen = float64(occ.RingOccupancy())
				}
				in.Workers = append(in.Workers, rs)
			}
		}
	}
	return in
}

// appendStageSample appends one tracer stage histogram if it saw samples.
func appendStageSample(dst []attrib.StageSample, t *obs.Tracer, st obs.Stage) []attrib.StageSample {
	h := t.StageHist(st)
	if h == nil {
		return dst
	}
	s := h.Snapshot()
	if s.Count == 0 {
		return dst
	}
	return append(dst, attrib.StageSample{
		Stage: string(st), Count: s.Count, SumNS: s.Sum, P99NS: s.P99,
	})
}

// BottleneckReport runs the analyzer over the engine's current profile.
func (e *Engine) BottleneckReport() attrib.Report {
	return attrib.Analyze(e.AttribInput())
}
