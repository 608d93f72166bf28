package ps

import (
	"math/rand"
	"sync"
)

// turnOrder serializes free-running workers' phases in a seeded
// pseudo-random order. Each worker step has two phases — the pull, and the
// compute that streams its pushes — and a worker runs a phase only when the
// order names it. After every phase the next turn goes to a worker drawn
// from the seeded stream among those still running, whether or not that
// worker has arrived yet, so the interleaving of pulls and pushes (and with
// it which pushes the staleness bound rejects) depends only on the seed.
// Workers still free-run: there is no round barrier, and a worker can take
// several turns in a row while others hold stale copies.
type turnOrder struct {
	mu     sync.Mutex
	cond   *sync.Cond
	rng    *rand.Rand
	active []int
	turn   int
}

func newTurnOrder(seed int64, workers int) *turnOrder {
	o := &turnOrder{rng: rand.New(rand.NewSource(seed))}
	o.cond = sync.NewCond(&o.mu)
	for w := 0; w < workers; w++ {
		o.active = append(o.active, w)
	}
	o.next()
	return o
}

// next draws the worker that runs the next phase (-1 when none is left).
// Callers hold o.mu.
func (o *turnOrder) next() {
	o.turn = -1
	if len(o.active) > 0 {
		o.turn = o.active[o.rng.Intn(len(o.active))]
	}
	o.cond.Broadcast()
}

// acquire blocks until it is worker id's turn. A nil order never blocks.
func (o *turnOrder) acquire(id int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	for o.turn != id {
		o.cond.Wait()
	}
	o.mu.Unlock()
}

// release ends worker id's phase and hands the turn on.
func (o *turnOrder) release() {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.next()
	o.mu.Unlock()
}

// leave drops a worker that has finished (or failed) from the draw.
func (o *turnOrder) leave(id int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, w := range o.active {
		if w == id {
			o.active = append(o.active[:i], o.active[i+1:]...)
			break
		}
	}
	if o.turn == id {
		o.next()
	}
}
