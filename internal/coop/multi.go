package coop

import (
	"fmt"
	"sort"

	"hybridndp/internal/device"
	"hybridndp/internal/exec"
	"hybridndp/internal/hw"
	"hybridndp/internal/num"
	"hybridndp/internal/vclock"
)

// MultiReport extends Report with per-device information for multi-device
// cooperative execution.
type MultiReport struct {
	Report
	Devices        int
	DeviceElapsed  []vclock.Duration // per-device busy time
	DeviceAccounts []map[string]vclock.Duration
}

// RunHybridMulti executes a hybrid split across several simulated smart
// storage devices (paper §4 opens with "the cooperative execution model and
// the handling of multiple devices with their own PQEP"). The driving
// table's key space is partitioned across the devices by primary-key
// quantiles; every device receives its own NDP command for the same
// device-side PQEP over its partition, produces intermediate result sets
// independently, and the host consumes the union in device-completion order.
//
// Simplification relative to the single-device path: per-device shared-buffer
// back-pressure is not modelled — with several producers the host is the
// bottleneck and devices run freely into their slots.
func (x *Executor) RunHybridMulti(p *exec.Plan, s Strategy, devices int) (*MultiReport, error) {
	if devices < 1 {
		devices = 1
	}
	if s.Kind != Hybrid {
		return nil, fmt.Errorf("coop: multi-device execution requires a hybrid strategy, got %v", s.Kind)
	}
	split := s.Split
	if split == 0 {
		split = -1
	}
	if split > len(p.Steps) {
		return nil, fmt.Errorf("coop: invalid split H%d for a %d-join plan", split, len(p.Steps))
	}
	if split < 0 {
		// H0 with its BNLI→BNL coercion, as in the single-device path.
		p2 := *p
		p2.Steps = append([]exec.JoinStep(nil), p.Steps...)
		for i := range p2.Steps {
			if p2.Steps[i].Type == exec.BNLI {
				p2.Steps[i].Type = exec.BNL
			}
		}
		p = &p2
	}
	snap, err := x.snapshotFor(p, split)
	if err != nil {
		return nil, err
	}

	hostTL := vclock.NewTimeline("host")
	hostR := hw.HostRates(x.Model)
	hostEng := &exec.Engine{Cat: x.Cat, TL: hostTL, R: hostR, Cache: x.hostCache(), BatchSize: x.BatchSize}
	pl, err := hostEng.StartPipeline(p)
	if err != nil {
		return nil, err
	}

	// Partition the driving table across devices by PK quantiles.
	bounds, err := x.drivingPartitions(p, devices)
	if err != nil {
		return nil, err
	}

	mr := &MultiReport{Devices: devices}
	mr.Query = p.Query.Name
	mr.Strategy = s
	mr.DeviceMemory = device.PlanMemory(x.Model, p, split)

	type timedBatch struct {
		b   device.Batch
		dev int
	}
	var all []timedBatch

	// (A) One NDP invocation per device; the commands go out back to back.
	hostFrom := 0
	if split > 0 {
		hostFrom = split
	}
	for d := 0; d < devices; d++ {
		dev := device.New(x.Model, x.Cat)
		dev.BatchSize = x.BatchSize
		cmd := &device.Command{Plan: p, SplitAfter: split, Snapshot: snap,
			Chunks: x.chunkCount(p)/devices + 1}
		if err := dev.Validate(cmd); err != nil {
			return nil, err
		}
		eng := dev.Engine(mr.DeviceMemory)
		x.applyCacheFormat(eng)
		eng.Views = snapshotViews(snap)
		setup := hostR.Interconnect.Transfer(cmd.Bytes(), cmd.Bytes())
		hostTL.Charge(hw.CatNDPSetup, setup)
		dev.TL.WaitUntil(hostTL.Now(), hw.CatNDPSetup)

		devIdx := d
		lo, hi := bounds[d], bounds[d+1]
		emit := func(b device.Batch) {
			all = append(all, timedBatch{b: b, dev: devIdx})
		}
		if err := x.runDevicePartition(dev, cmd, pl, eng, lo, hi, emit); err != nil {
			return nil, err
		}
		mr.DeviceElapsed = append(mr.DeviceElapsed, vclock.Duration(dev.TL.Now()))
		mr.DeviceAccounts = append(mr.DeviceAccounts, dev.TL.Account())
	}

	// Host prep overlaps the initial device executions.
	if split > 0 {
		for si := hostFrom; si < len(p.Steps); si++ {
			if p.Steps[si].Type != exec.BNLI {
				if _, err := hostEng.BuildInner(pl, si); err != nil {
					return nil, err
				}
			}
		}
	}

	// (B) Consume in device-completion order.
	sort.SliceStable(all, func(i, j int) bool { return all[i].b.Ready < all[j].b.Ready })
	tuples := new(exec.TupleSet)
	first := true
	for _, tb := range all {
		cat := hw.CatWaitFetch
		if first {
			cat = hw.CatWaitInitial
		}
		hostTL.WaitUntil(tb.b.Ready, cat)
		first = false
		hostR.Transfer(hostTL, num.MaxI64(tb.b.Bytes, 64), x.Model.SharedBufferSlot)
		mr.TransferredBytes += tb.b.Bytes
		mr.Batches++
		ev := BatchEvent{
			Idx: mr.Batches - 1, Bytes: tb.b.Bytes,
			DeviceReady: tb.b.Ready, HostFetched: hostTL.Now(),
		}
		if tb.b.LeafAlias != "" {
			for si, st := range p.Steps {
				if st.Right.Ref.Alias == tb.b.LeafAlias {
					// Leaf batches arrive partitioned per device; seeding
					// accumulates across devices via AppendInnerCols.
					if err := hostEng.AppendInnerCols(pl, si, tb.b.Cols); err != nil {
						return nil, err
					}
					break
				}
			}
			ev.Rows = tb.b.Cols.Len()
		} else {
			batch := tb.b.Tuples
			ev.Rows = batch.Len()
			for si := hostFrom; si < len(p.Steps); si++ {
				var jerr error
				batch, jerr = hostEng.JoinStep(pl, si, batch)
				if jerr != nil {
					return nil, jerr
				}
			}
			tuples.Append(batch)
		}
		ev.HostDone = hostTL.Now()
		mr.Timeline = append(mr.Timeline, ev)
	}

	res, err := hostEng.Finalize(pl, tuples)
	if err != nil {
		return nil, err
	}
	mr.Result = res
	mr.Elapsed = vclock.Duration(hostTL.Now())
	mr.HostAccount = hostTL.Account()
	if devices > 0 {
		mr.DeviceAccount = mr.DeviceAccounts[0]
	}
	return mr, nil
}

// drivingPartitions derives devices+1 PK boundaries from the driving table's
// statistics sample (open at both ends).
func (x *Executor) drivingPartitions(p *exec.Plan, devices int) ([]*int32, error) {
	t, err := x.Cat.Table(p.Driving.Ref.Table)
	if err != nil {
		return nil, err
	}
	st := t.CollectStats()
	pks := make([]int32, 0, len(st.Sample))
	for _, r := range st.Sample {
		pks = append(pks, r.PK())
	}
	sort.Slice(pks, func(i, j int) bool { return pks[i] < pks[j] })
	bounds := make([]*int32, 0, devices+1)
	bounds = append(bounds, nil)
	for d := 1; d < devices && len(pks) > devices; d++ {
		q := pks[d*len(pks)/devices]
		if last := bounds[len(bounds)-1]; last == nil || q > *last {
			v := q
			bounds = append(bounds, &v)
		}
	}
	bounds = append(bounds, nil)
	for len(bounds) < devices+1 {
		bounds = append(bounds, nil) // degenerate: fewer distinct quantiles
	}
	return bounds, nil
}

// runDevicePartition runs one device's share: the device-side PQEP restricted
// to the driving-table range [lo, hi). H0 leaf batches for the inner tables
// are emitted only by device 0 — in a real deployment each device holds its
// partition of every table; here the single flash holds everything once.
func (x *Executor) runDevicePartition(dev *device.Device, cmd *device.Command,
	pl *exec.Pipeline, eng *exec.Engine, lo, hi *int32, emit func(device.Batch)) error {
	return dev.RunPartition(cmd, pl, eng, lo, hi, emit)
}
