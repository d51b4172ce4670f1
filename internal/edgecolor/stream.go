package edgecolor

import (
	"context"
	"errors"
	"fmt"

	"pops/internal/graph"
)

// ErrStreamSuperseded is returned by Stream.Next once another factorization
// (batch or streaming) has run on the stream's Factorizer: the arena that
// held the stream's resumable state has been reused.
var ErrStreamSuperseded = errors.New("edgecolor: stream superseded by a later call on its Factorizer")

// Stream is a paused 1-factorization: each Next call resumes the underlying
// algorithm just long enough to complete one more color class and then
// suspends it again, leaving the class index in the caller's color buffer.
// It is the incremental form of FactorizeInto/BalancedInto — driving a
// Stream to exhaustion writes exactly the colors the batch call would have
// written, because batch and stream drain the same arena steppers and cut
// their factors the same way.
//
// A Stream borrows its Factorizer's arena: starting another factorization
// on the same arena (FactorizeInto, BalancedInto, Start, StartBalanced)
// supersedes the stream, and its Next then returns ErrStreamSuperseded.
// Steady-state Next calls on a warmed arena do not allocate; Start itself
// allocates only the stream handle.
type Stream struct {
	f    *Factorizer
	gen  uint64
	algo Algorithm
	ctx  context.Context // cancellation checked between classes; nil = never

	b   *graph.Bipartite // graph being colored; colorBuf and Factor are indexed by its edge IDs
	k   int              // regular degree of b: the stepper peels k factors
	num int              // classes the stream yields: k, or colorCount for StartBalanced

	// Classes are the stepper's factors cut into runs (a plain Start is the
	// cut with one run per factor): src is the factor being cut, base its
	// first class, and run of runs the next run to look at. A run of exactly
	// the class size is final and is yielded at once (and marked in the
	// arena's yielded set); the other runs wait until the last factor has
	// landed, are equalized, and are then yielded in ascending class order
	// from next on.
	cut       cut
	src       []int
	base      int
	run, runs int
	settled   bool
	next      int

	produced int
	factor   []int
	err      error
	done     bool
}

// Start begins a streaming 1-factorization of a k-regular bipartite
// multigraph with equal sides: the stream's Next calls yield the k perfect
// matchings one at a time. Validation errors (unequal sides, irregular
// graph, unknown algorithm) surface on the first Next. The returned stream
// borrows the Factorizer's arena — one stream per arena at a time.
func (f *Factorizer) Start(b *graph.Bipartite, algo Algorithm) *Stream {
	return f.StartCtx(context.Background(), b, algo)
}

// StartCtx is Start with a context: ctx is checked between factors, so
// cancelling it stops factor production at the next Next call, which then
// returns ctx.Err() as the stream's sticky error.
func (f *Factorizer) StartCtx(ctx context.Context, b *graph.Bipartite, algo Algorithm) *Stream {
	f.streamGen++
	st := &Stream{f: f, gen: f.streamGen, algo: algo, ctx: ctx, b: b}
	if b.NLeft() != b.NRight() {
		st.err = fmt.Errorf("edgecolor: sides differ (%d vs %d)", b.NLeft(), b.NRight())
		return st
	}
	k, ok := b.RegularDegree()
	if !ok {
		st.err = graph.ErrNotBipartiteRegular
		return st
	}
	st.k, st.num = k, k
	st.cut = newCut(b.NLeft(), b.NLeft(), k)
	st.err = st.start()
	return st
}

// StartBalanced begins a streaming balanced coloring (Theorem 1): the
// stream yields colorCount classes of exactly n·k/C edges each. Every run
// that BalancedInto cuts to exactly that size is yielded as soon as the
// factor it is cut from lands; when the class size divides n (every d | g
// POPS shape) that is every class, so the first one costs one factor. When
// it does not, each factor also leaves one run of another size; those k
// classes are equalized once the last factor has landed and are yielded
// last, in ascending class order. The equalizing step never touches a class
// that already has the right size, so driving the stream to exhaustion
// writes exactly the colors BalancedInto would have written.
func (f *Factorizer) StartBalanced(b *graph.Bipartite, colorCount int, algo Algorithm) *Stream {
	return f.StartBalancedCtx(context.Background(), b, colorCount, algo)
}

// StartBalancedCtx is StartBalanced with a context, checked between classes
// like StartCtx.
func (f *Factorizer) StartBalancedCtx(ctx context.Context, b *graph.Bipartite, colorCount int, algo Algorithm) *Stream {
	f.streamGen++
	st := &Stream{f: f, gen: f.streamGen, algo: algo, ctx: ctx, b: b}
	k, c, err := balancedSetup(b, colorCount, b.NumEdges())
	if err != nil {
		st.err = err
		return st
	}
	st.k, st.num, st.cut = k, colorCount, c
	st.err = st.start()
	return st
}

// start seeds the stepper and clears the arena's yielded-class set.
func (st *Stream) start() error {
	st.f.yielded = st.f.yielded.Resize(st.num)
	return st.f.stepStart(st.b, st.k, st.algo)
}

// Next resumes the coloring until one more class is complete, writing the
// class index into colorBuf (indexed by edge ID of the graph passed to
// Start/StartBalanced) for every edge of the class. It returns the class
// index and ok == true, or ok == false once all classes have been produced.
// The same colorBuf must be passed to every Next call of one stream; after
// the final class it is identical to what the batch
// FactorizeInto/BalancedInto call would have produced. Errors are sticky.
func (st *Stream) Next(colorBuf []int) (factorID int, ok bool, err error) {
	if st.err != nil {
		return 0, false, st.err
	}
	if st.done {
		return 0, false, nil
	}
	if st.gen != st.f.streamGen {
		st.err = ErrStreamSuperseded
		return 0, false, st.err
	}
	if st.ctx != nil {
		if err := st.ctx.Err(); err != nil {
			st.err = err
			return 0, false, st.err
		}
	}
	if len(colorBuf) != st.b.NumEdges() {
		st.err = fmt.Errorf("edgecolor: %d color slots for %d edges", len(colorBuf), st.b.NumEdges())
		return 0, false, st.err
	}

	factorID, class, ok, err := st.nextClass(colorBuf)
	if err != nil {
		st.err = err
		return 0, false, err
	}
	if !ok {
		if st.produced != st.num {
			st.err = fmt.Errorf("edgecolor: internal error: stream produced %d of %d classes", st.produced, st.num)
			return 0, false, st.err
		}
		st.done = true
		st.factor = nil
		return 0, false, nil
	}
	st.produced++
	st.factor = class
	return factorID, true, nil
}

// nextClass yields the next final class: the next run of exactly the class
// size, peeling factors from the stepper as needed; once the stepper is
// exhausted, the equalized classes that were held back.
func (st *Stream) nextClass(colorBuf []int) (int, []int, bool, error) {
	f := st.f
	for !st.settled {
		for st.run < st.runs {
			c, class := st.base+st.run, st.cut.run(st.src, st.run, st.runs)
			st.run++
			if len(class) == st.cut.size {
				f.yielded.Set(c)
				return c, class, true, nil
			}
		}
		j, factor, ok, err := f.step(st.algo, colorBuf, st.b)
		if err != nil {
			return 0, nil, false, err
		}
		if !ok {
			st.settled = true
			if st.produced < st.num {
				if err := f.equalize(colorBuf, st.b, st.num, st.cut.size); err != nil {
					return 0, nil, false, err
				}
				f.bucket(colorBuf, st.num)
			}
			break
		}
		st.src, st.run = factor, 0
		st.base, st.runs = st.cut.classes(j)
		st.cut.color(colorBuf, factor, st.base, st.runs)
	}
	for ; st.next < st.num; st.next++ {
		if c := st.next; !f.yielded.Test(c) {
			st.next++
			return c, f.class(c), true, nil
		}
	}
	return 0, nil, false, nil
}

// Factor returns the edge IDs of the most recently produced class, in the
// graph passed to Start/StartBalanced. The slice is arena-owned: it is
// valid until the next Next call or any other call on the stream's
// Factorizer, and must not be modified. The IDs are in no particular order.
func (st *Stream) Factor() []int { return st.factor }

// NumFactors returns the total number of classes the stream produces: the
// regular degree for Start, colorCount for StartBalanced.
func (st *Stream) NumFactors() int { return st.num }

// Produced returns how many classes Next has yielded so far.
func (st *Stream) Produced() int { return st.produced }

// Err returns the stream's sticky error, if any.
func (st *Stream) Err() error { return st.err }
