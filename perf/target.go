//go:build linux

package main

import (
	"time"

	"parsssp"
)

// target is a system under test that runs one operation at a time in
// this process: the library pool of grid-lib, or an in-process Machine
// in the traced replay of any workload.
type target struct {
	query func(parsssp.Vertex) (*parsssp.Result, error)
	// update applies a batch and returns the repaired tree of the last
	// query's source (nil before any query).
	update func(parsssp.UpdateBatch) (*parsssp.Result, error)
	// validate, when set, checks a query's distances in full, beyond
	// their checksum.
	validate func(src parsssp.Vertex, dist []parsssp.Dist) error
	// before and after, when set, bracket every operation: the traced
	// replay opens and closes the operation's span there and reads the
	// engine's counters.
	before func(o op)
	after  func(o op, res *parsssp.Result, took time.Duration)
}

// run executes ops in order, checking every answer against the oracle.
// An engine error ends the run: it leaves the machine poisoned.
func (t target) run(in *inputs, ops []op, rec *recorder) error {
	for _, o := range ops {
		if t.before != nil {
			t.before(o)
		}
		var res *parsssp.Result
		var err error
		start := time.Now()
		if o.kind == opQuery {
			res, err = t.query(in.roots[o.idx])
		} else {
			res, err = t.update(in.batch(o))
		}
		took := time.Since(start)
		if t.after != nil {
			t.after(o, res, took)
		}
		if err != nil {
			return err
		}
		rec.exp.apply(o)
		if o.kind != opQuery {
			rec.attempted += burstOps
			rec.ulines += burstOps
			rec.acks = append(rec.acks, ms(took))
			if res == nil || rec.exp.standing < 0 {
				continue
			}
			src, want := in.roots[rec.exp.standing], rec.exp.sum(rec.exp.standing)
			if sum, _ := checksum(res.Dist); sum != want {
				rec.fail("src=%d repaired checksum %016x, oracle %016x", src, sum, want)
			}
			continue
		}
		rec.attempted++
		src, want := in.roots[o.idx], rec.exp.sum(o.idx)
		if sum, _ := checksum(res.Dist); sum != want {
			rec.fail("src=%d checksum %016x, oracle %016x", src, sum, want)
		} else if t.validate != nil {
			if err := t.validate(src, res.Dist); err != nil {
				rec.fail("src=%d: %v", src, err)
			}
		}
		rec.lat = append(rec.lat, ms(took))
		rec.engine = append(rec.engine, ms(res.Stats.Total))
	}
	return nil
}
