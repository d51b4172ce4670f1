package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pops"
	"pops/internal/popsnet"
)

// errWrongPlan marks a response that arrived but fails the oracle; such a
// run is not correct, unlike one with refused or timed-out requests.
var errWrongPlan = errors.New("wrong plan")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrongPlan, fmt.Sprintf(format, args...))
}

func fingerprint(pi []int) string { return fmt.Sprintf("%016x", pops.PermutationFingerprint(pi)) }

// checkPlan is the inline oracle on a unary answer: no error, the optimal
// slot count, the permutation's fingerprint, and a schedule of that length.
func checkPlan(d, g int, pi []int, p *pops.ServicePlan) error {
	if p.Error != "" {
		return wrongf("plan error %q", p.Error)
	}
	if want := pops.OptimalSlots(d, g); p.Slots != want {
		return wrongf("%d slots, want OptimalSlots(%d,%d) = %d", p.Slots, d, g, want)
	}
	if want := fingerprint(pi); p.Fingerprint != want {
		return wrongf("fingerprint %s, want %s", p.Fingerprint, want)
	}
	if p.Schedule == nil || p.Schedule.SlotCount() != p.Slots {
		return wrongf("schedule missing or not %d slots long", p.Slots)
	}
	return nil
}

// checkMeta is the inline oracle on a stream's opening record.
func checkMeta(d, g int, pi []int, m pops.ServiceStreamMeta) error {
	if want := pops.OptimalSlots(d, g); m.Slots != want {
		return wrongf("stream announces %d slots, want OptimalSlots(%d,%d) = %d", m.Slots, d, g, want)
	}
	if want := fingerprint(pi); m.Fingerprint != want {
		return wrongf("stream fingerprint %s, want %s", m.Fingerprint, want)
	}
	return nil
}

// reassemble rebuilds a schedule from stream fragments, each placed in its
// slot at its offset. Fragments may arrive in any order; they must tile
// every slot exactly, with no gap and no overlap.
func reassemble(nw popsnet.Network, slots int, frags []pops.ServiceStreamSlot) (*popsnet.Schedule, error) {
	size := make([]int, slots)
	for _, f := range frags {
		if f.Slot < 0 || f.Slot >= slots {
			return nil, wrongf("fragment for slot %d of %d", f.Slot, slots)
		}
		if len(f.Sends) != len(f.Recvs) || f.Offset < 0 {
			return nil, wrongf("slot %d fragment at %d has %d sends, %d recvs", f.Slot, f.Offset, len(f.Sends), len(f.Recvs))
		}
		size[f.Slot] = max(size[f.Slot], f.Offset+len(f.Sends))
	}
	sched := &popsnet.Schedule{Net: nw, Slots: make([]popsnet.Slot, slots)}
	covered := make([][]bool, slots)
	for s := range sched.Slots {
		sched.Slots[s] = popsnet.Slot{Sends: make([]popsnet.Send, size[s]), Recvs: make([]popsnet.Recv, size[s])}
		covered[s] = make([]bool, size[s])
	}
	for _, f := range frags {
		for k := range f.Sends {
			if covered[f.Slot][f.Offset+k] {
				return nil, wrongf("slot %d: fragments overlap at %d", f.Slot, f.Offset+k)
			}
			covered[f.Slot][f.Offset+k] = true
		}
		copy(sched.Slots[f.Slot].Sends[f.Offset:], f.Sends)
		copy(sched.Slots[f.Slot].Recvs[f.Offset:], f.Recvs)
	}
	for s := range covered {
		for k, ok := range covered[s] {
			if !ok {
				return nil, wrongf("slot %d: gap at %d", s, k)
			}
		}
	}
	return sched, nil
}

// replay runs a schedule on the slot-level simulator and requires packet p
// to end at processor pi[p].
func replay(nw popsnet.Network, sched *popsnet.Schedule, pi []int) error {
	sched.Net = nw
	if _, err := popsnet.VerifyPermutationRouted(sched, pi); err != nil {
		return wrongf("replay: %v", err)
	}
	return nil
}

// reply is the outcome of one request as its caller saw it.
type reply struct {
	first, end time.Time
	cached     bool
	sched      *popsnet.Schedule // kept only when asked
	err        error
}

// call sends pi once the way the workload does and checks the answer inline.
// keep asks for the schedule (reassembled, for streams) to be returned for a
// later replay.
func call(ctx context.Context, c *pops.ServiceClient, w workload, nw popsnet.Network, pi []int, keep bool) reply {
	if !w.stream {
		resp, err := c.Do(ctx, &pops.ServiceRouteRequest{D: w.d, G: w.g, Pi: pi, IncludeSchedule: true})
		end := time.Now()
		r := reply{first: end, end: end}
		switch {
		case err != nil:
			r.err = err
		case len(resp.Plans) != 1:
			r.err = wrongf("%d plans for one permutation", len(resp.Plans))
		default:
			p := &resp.Plans[0]
			r.cached = p.Cached
			if r.err = checkPlan(w.d, w.g, pi, p); r.err == nil && keep {
				r.sched = p.Schedule
			}
		}
		return r
	}
	st, err := c.ExecuteStream(ctx, w.d, w.g, pops.Permutation(pi))
	if err != nil {
		return reply{end: time.Now(), err: err}
	}
	defer st.Close()
	meta := st.Meta()
	r := reply{cached: meta.Cached}
	if r.err = checkMeta(w.d, w.g, pi, meta); r.err != nil {
		r.end = time.Now()
		return r
	}
	var frags []pops.ServiceStreamSlot
	count := 0
	for {
		f, err := st.Next()
		if err != nil {
			r.end, r.err = time.Now(), err
			return r
		}
		if f == nil {
			break
		}
		if count == 0 {
			r.first = time.Now()
		}
		count++
		if keep {
			frags = append(frags, *f)
		}
	}
	r.end = time.Now()
	if done := st.Done(); done.Slots != meta.Slots || done.Fragments != count {
		r.err = wrongf("stream done %+v after %d fragments, meta %+v", *done, count, meta)
		return r
	}
	if keep {
		r.sched, r.err = reassemble(nw, meta.Slots, frags)
	}
	return r
}

func isWrong(err error) bool { return errors.Is(err, errWrongPlan) }
