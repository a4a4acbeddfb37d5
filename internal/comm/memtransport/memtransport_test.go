package memtransport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"parsssp/internal/comm"
)

// runRanks executes fn on every rank concurrently and fails the test on
// any returned error.
func runRanks(t *testing.T, size int, fn func(t comm.Transport) error) {
	t.Helper()
	g, err := New(size)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(g.Rank(r))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) accepted")
	}
	g, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Rank out of range did not panic")
		}
	}()
	g.Rank(2)
}

func TestExchangeDelivery(t *testing.T) {
	const size = 4
	runRanks(t, size, func(tr comm.Transport) error {
		me := tr.Rank()
		out := make([][]byte, size)
		for dst := range out {
			out[dst] = []byte(fmt.Sprintf("from %d to %d", me, dst))
		}
		in, err := tr.Exchange(out)
		if err != nil {
			return err
		}
		for src := range in {
			want := fmt.Sprintf("from %d to %d", src, me)
			if string(in[src]) != want {
				return fmt.Errorf("in[%d] = %q, want %q", src, in[src], want)
			}
		}
		return nil
	})
}

func TestExchangeEmptyAndNil(t *testing.T) {
	const size = 3
	runRanks(t, size, func(tr comm.Transport) error {
		out := make([][]byte, size)
		out[0] = []byte{}
		in, err := tr.Exchange(out)
		if err != nil {
			return err
		}
		for src := range in {
			if len(in[src]) != 0 {
				return fmt.Errorf("expected empty delivery, got %d bytes", len(in[src]))
			}
		}
		return nil
	})
}

func TestExchangeBufferOwnership(t *testing.T) {
	// A sender reusing its out buffer after Exchange must not corrupt
	// what receivers already collected.
	const size = 2
	runRanks(t, size, func(tr comm.Transport) error {
		me := tr.Rank()
		out := make([][]byte, size)
		buf := []byte{byte(me), byte(me)}
		out[1-me] = buf
		in, err := tr.Exchange(out)
		if err != nil {
			return err
		}
		got := append([]byte(nil), in[1-me]...)
		// Trash the send buffer and run another collective round.
		buf[0], buf[1] = 0xFF, 0xFF
		if _, err := tr.AllreduceInt64([]int64{1}, comm.Sum); err != nil {
			return err
		}
		if !bytes.Equal(got, in[1-me]) {
			return fmt.Errorf("received buffer changed after sender reuse")
		}
		if in[1-me][0] != byte(1-me) {
			return fmt.Errorf("received %v, want sender id %d", in[1-me], 1-me)
		}
		return nil
	})
}

func TestExchangeWrongLength(t *testing.T) {
	g, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Rank(0).Exchange(make([][]byte, 2)); err == nil {
		t.Error("wrong buffer count accepted")
	}
}

func TestAllreduceOps(t *testing.T) {
	const size = 4
	runRanks(t, size, func(tr comm.Transport) error {
		me := int64(tr.Rank())
		sum, err := tr.AllreduceInt64([]int64{me, 1}, comm.Sum)
		if err != nil {
			return err
		}
		if sum[0] != 0+1+2+3 || sum[1] != size {
			return fmt.Errorf("sum = %v", sum)
		}
		min, err := tr.AllreduceInt64([]int64{me * 10}, comm.Min)
		if err != nil {
			return err
		}
		if min[0] != 0 {
			return fmt.Errorf("min = %v", min)
		}
		max, err := tr.AllreduceInt64([]int64{me * 10}, comm.Max)
		if err != nil {
			return err
		}
		if max[0] != 30 {
			return fmt.Errorf("max = %v", max)
		}
		return nil
	})
}

func TestAllreduceEmpty(t *testing.T) {
	runRanks(t, 2, func(tr comm.Transport) error {
		res, err := tr.AllreduceInt64(nil, comm.Sum)
		if err != nil {
			return err
		}
		if len(res) != 0 {
			return fmt.Errorf("empty allreduce returned %v", res)
		}
		return nil
	})
}

func TestManyRounds(t *testing.T) {
	// Stress the barrier reuse across mixed collectives.
	const size = 5
	runRanks(t, size, func(tr comm.Transport) error {
		for round := 0; round < 200; round++ {
			me := tr.Rank()
			out := make([][]byte, size)
			for dst := range out {
				out[dst] = []byte{byte(me), byte(dst), byte(round)}
			}
			in, err := tr.Exchange(out)
			if err != nil {
				return err
			}
			for src := range in {
				if in[src][0] != byte(src) || in[src][2] != byte(round) {
					return fmt.Errorf("round %d: bad delivery from %d", round, src)
				}
			}
			if err := tr.Barrier(); err != nil {
				return err
			}
			v, err := tr.AllreduceInt64([]int64{int64(round)}, comm.Max)
			if err != nil {
				return err
			}
			if v[0] != int64(round) {
				return fmt.Errorf("allreduce round tag %d != %d", v[0], round)
			}
		}
		return nil
	})
}

func TestSingleRank(t *testing.T) {
	runRanks(t, 1, func(tr comm.Transport) error {
		in, err := tr.Exchange([][]byte{[]byte("self")})
		if err != nil {
			return err
		}
		if string(in[0]) != "self" {
			return fmt.Errorf("self delivery = %q", in[0])
		}
		v, err := tr.AllreduceInt64([]int64{7}, comm.Sum)
		if err != nil {
			return err
		}
		if v[0] != 7 {
			return fmt.Errorf("allreduce = %v", v)
		}
		return tr.Close()
	})
}

func TestEndpoints(t *testing.T) {
	g, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	eps := g.Endpoints()
	if len(eps) != 3 {
		t.Fatalf("Endpoints returned %d", len(eps))
	}
	for i, ep := range eps {
		if ep.Rank() != i || ep.Size() != 3 {
			t.Errorf("endpoint %d reports rank %d size %d", i, ep.Rank(), ep.Size())
		}
	}
}

func TestAllreduceResultOwnership(t *testing.T) {
	// The comm.Transport ownership rule: a result is the endpoint's and
	// lives until that endpoint's next collective, so a caller that wants
	// two results side by side (the old decision heuristic's Sum and Max)
	// copies the first out. The reuse must never leak one call's values
	// into the next call's result, whatever the ops and lengths.
	runRanks(t, 2, func(tr comm.Transport) error {
		me := int64(tr.Rank())
		sums, err := tr.AllreduceInt64([]int64{me + 1, 7}, comm.Sum)
		if err != nil {
			return err
		}
		kept := append([]int64(nil), sums...)
		maxes, err := tr.AllreduceInt64([]int64{me * 100}, comm.Max)
		if err != nil {
			return err
		}
		if len(maxes) != 1 || maxes[0] != 100 {
			return fmt.Errorf("second Allreduce = %v, want [100]", maxes)
		}
		if kept[0] != 3 || kept[1] != 14 {
			return fmt.Errorf("copied-out result = %v, want [3 14]", kept)
		}
		return nil
	})
	// The point of the rule: a warm endpoint's Allreduce allocates nothing.
	g, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	ep, vals := g.Rank(0), []int64{1, 2, 3}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := ep.AllreduceInt64(vals, comm.Sum); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("warm AllreduceInt64 allocates %.0f times per call, want 0", allocs)
	}
}

func TestExchangeVDelivery(t *testing.T) {
	// The gathered path must deliver the concatenation of each segment
	// list, treating empty lists and nil segments as zero-length payloads.
	const size = 3
	runRanks(t, size, func(tr comm.Transport) error {
		me := tr.Rank()
		ge, ok := tr.(comm.GatherExchanger)
		if !ok {
			return fmt.Errorf("endpoint does not implement GatherExchanger")
		}
		vout := make([][][]byte, size)
		for dst := 0; dst < size; dst++ {
			switch dst % 3 {
			case 0:
				vout[dst] = nil
			case 1:
				vout[dst] = [][]byte{{byte(me)}, nil, {byte(dst), 0xAB}}
			default:
				vout[dst] = [][]byte{{byte(me), byte(dst), 0xCD}}
			}
		}
		in, err := ge.ExchangeV(vout)
		if err != nil {
			return err
		}
		for src := 0; src < size; src++ {
			var want []byte
			switch me % 3 {
			case 0:
				want = nil
			case 1:
				want = []byte{byte(src), byte(me), 0xAB}
			default:
				want = []byte{byte(src), byte(me), 0xCD}
			}
			if !bytes.Equal(in[src], want) {
				return fmt.Errorf("in[%d] = %v, want %v", src, in[src], want)
			}
		}
		return nil
	})
}

func TestExchangeVSelfZeroCopy(t *testing.T) {
	// A single-segment self row is delivered without copying: sender and
	// receiver are the same goroutine, so there is no reuse hazard and
	// the copy would be pure overhead on the engine's hottest path.
	runRanks(t, 2, func(tr comm.Transport) error {
		me := tr.Rank()
		ge := tr.(comm.GatherExchanger)
		self := []byte{1, 2, 3}
		vout := make([][][]byte, 2)
		vout[me] = [][]byte{self}
		in, err := ge.ExchangeV(vout)
		if err != nil {
			return err
		}
		if len(in[me]) != 3 || &in[me][0] != &self[0] {
			return fmt.Errorf("single-segment self delivery was copied")
		}
		return nil
	})
}

func TestExchangeVWrongLength(t *testing.T) {
	g, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	ge := g.Rank(0).(comm.GatherExchanger)
	if _, err := ge.ExchangeV(make([][][]byte, 2)); err == nil {
		t.Error("wrong buffer count accepted")
	}
}
