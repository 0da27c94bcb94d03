package sched

import (
	"hybridndp/internal/coop"
	"hybridndp/internal/fleet"
	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/vclock"
)

// fleetGate adapts the scheduler's resource ledger and circuit breakers to
// per-shard fleet admission: every device-side shard of a scatter-gather run
// claims its command slot, DRAM reservation and a buffer slot on its pinned
// device, and reports its outcome into that device's breaker. A denied shard
// degrades to host execution inside the fleet run instead of queueing — the
// partial-fleet degradation path.
type fleetGate struct {
	l *Ledger
	m *obs.Registry
}

func (g *fleetGate) AdmitShard(dev int, memBytes int64, estNs float64) (func(ok bool, busyNs float64), bool) {
	c := Claim{MemBytes: memBytes, BufSlots: 1, EstDeviceNs: estNs}
	if !g.l.TryAcquireDevice(dev, c) {
		g.m.Counter("sched.fleet.shard.denied").Inc()
		return nil, false
	}
	g.m.Counter("sched.fleet.shard.admitted").Inc()
	released := false
	return func(ok bool, busyNs float64) {
		if released {
			return
		}
		released = true
		g.l.ReportDeviceResult(dev, ok)
		if ok {
			g.l.AdjustDevice(dev, busyNs-estNs)
		}
		g.l.Release(dev, c)
	}, true
}

// fleetDeviceBusy sums the fleet's device-side busy virtual time (setup
// rendezvous excluded, matching deviceBusy).
func fleetDeviceBusy(r *fleet.Report) vclock.Duration {
	var busy vclock.Duration
	for _, sr := range r.Shards {
		busy += vclock.SumAccount(sr.Account, deviceBusyCategory)
	}
	return busy
}

// processFleet executes one decided query over the sharded fleet: plan the
// per-shard split points, scatter-gather through the fleet executor (shard
// admission runs against this scheduler's ledger via fleetGate), and fall
// back to plain host-native execution if the fleet run fails outright.
func (s *Scheduler) processFleet(t *Ticket, base *Outcome, d *optimizer.Decision) {
	m := s.cfg.Metrics
	tr := s.cfg.Traces.New(t.query.Name)
	s.ledger.AddHost(d.Costs.HostTotal)
	a, err := fleet.PlanShards(s.opt, s.cfg.Fleet.Desc, d)
	var frep *fleet.Report
	if err == nil {
		frep, err = s.cfg.Fleet.RunTraced(a, tr, t.deadline.Exec)
	}
	if err != nil {
		// The cooperative single-device path falls back to the host on device
		// failure; the fleet path keeps the same precondition.
		base.Chosen = coop.Strategy{Kind: coop.HostNative}.String()
		base.Degraded = true
		m.Counter("sched.fallback.host").Inc()
		rep, herr := s.exec.RunTraced(d.Plan, coop.Strategy{Kind: coop.HostNative}, tr)
		if herr != nil {
			base.Err = herr
			s.recordOutcome(base, 0, 0)
			t.finish(*base)
			return
		}
		s.ledger.AdjustHost(float64(hostBusy(rep)) - d.Costs.HostTotal)
		base.Elapsed = rep.Elapsed
		base.Report = rep
		s.recordOutcome(base, hostBusy(rep), 0)
		t.finish(*base)
		return
	}
	base.Chosen = "fleet:" + a.Label()
	base.Degraded = frep.DegradedShards > 0 || frep.DeadlineDegraded > 0
	if base.Degraded {
		m.Counter("sched.fleet.degraded_runs").Inc()
	}
	m.Counter("sched.fleet.runs").Inc()

	// Convert to the cooperative report shape the outcome pipeline consumes.
	var devMax vclock.Duration
	for _, sr := range frep.Shards {
		if sr.Elapsed > devMax {
			devMax = sr.Elapsed
		}
	}
	rep := &coop.Report{
		Query:            frep.Query,
		Strategy:         strategyOf(d),
		Result:           frep.Result,
		Elapsed:          frep.Elapsed,
		DeviceElapsed:    devMax,
		HostAccount:      frep.HostAccount,
		Batches:          frep.Batches,
		TransferredBytes: frep.TransferredBytes,
	}
	s.ledger.AdjustHost(float64(hostBusy(rep)) - d.Costs.HostTotal)
	base.Elapsed = frep.Elapsed
	base.Report = rep
	s.recordOutcome(base, hostBusy(rep), fleetDeviceBusy(frep))
	t.finish(*base)
}
