package workload

import (
	"sync"

	"dewrite/internal/trace"
)

// A Stream generates streamChunk requests at a time, with streamDepth chunks
// in circulation: the producer fills one while the consumer reads the other.
// The producer is the faster side, about twice as fast as the DeWrite
// controller on lbm and four times on vips, whose writes mostly take the
// unique path, so it sleeps on a full window and wakes for each released
// chunk. A wake-up can land its thread on the consumer's CPU, and the kernel
// moves one of them only if it sees both runnable at a scheduler tick. A
// chunk of 16 Ki requests keeps the producer busy for 4-6 ms (a tick or more
// of a 250 Hz kernel), so that happens within the chunk; with 1 Ki chunks
// (under 1 ms per wake-up) the pair could share one CPU of a 2-vCPU VM for
// seconds, and throughput varied by a third from run to run. Each chunk in
// circulation holds its requests (56 B each) and, in recycle mode, a 256 B
// payload copy per write: about 3.2 MB at lbm's 55 % writes, reused rather
// than collected, so the window is no deeper than double buffering needs.
const (
	streamChunk = 16384
	streamDepth = 2
)

// chunk is a batch of requests plus, in recycle mode, the copies of their
// write payloads, whose blocks are reused once the consumer releases it.
type chunk struct {
	reqs  []trace.Request
	lines lineBlocks
}

// Stream runs a generator on its own goroutine, so that generating requests
// overlaps consuming them. Chunks arrive in generation order and the
// generator never reads the consumer's state, so the requests are exactly
// the ones the generator's Next returns in a loop, whatever the scheduling.
//
// In recycle mode the producer copies each write payload out of the
// generator's shadow into its chunk's payload blocks, which it reuses only
// when the consumer has released the chunk: a request's Data stays valid
// until the next call to Next. With recycle off the payloads are the
// generator's own copies and stay valid for good. A Stream has one consumer.
type Stream struct {
	full  chan *chunk // generated chunks, in order
	empty chan *chunk // chunks the consumer has released
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	cur   *chunk

	warm, final Stats // written by the producer before done closes
}

// NewStream starts a producer that generates n requests from g, taking the
// ground-truth snapshots just before request warmup and after the last
// request. The stream owns g until it ends; call Close when done with it.
func NewStream(g *Generator, n, warmup int) *Stream {
	s := &Stream{
		// Both channels are buffered to the chunk count, so neither the
		// producer's hand-off nor the consumer's release ever blocks.
		full:  make(chan *chunk, streamDepth),
		empty: make(chan *chunk, streamDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := 0; i < streamDepth; i++ {
		s.empty <- &chunk{reqs: make([]trace.Request, 0, min(n, streamChunk))}
	}
	go s.produce(g, n, warmup)
	return s
}

func (s *Stream) produce(g *Generator, n, warmup int) {
	defer close(s.done)
	defer close(s.full)
	for i := 0; i < n; {
		var c *chunk
		select {
		case c = <-s.empty:
		case <-s.stop:
			return
		}
		c.reqs = c.reqs[:0]
		c.lines.used = 0
		for ; i < n && len(c.reqs) < streamChunk; i++ {
			if i == warmup {
				s.warm = g.Stats()
			}
			r := g.Next()
			if g.recycle && r.Op == trace.Write {
				// The shadow line changes with the line's next write.
				r.Data = c.lines.copyLine((*lineBuf)(r.Data))
			}
			c.reqs = append(c.reqs, r)
		}
		if i == n {
			s.final = g.Stats()
		}
		s.full <- c
	}
}

// Next releases the previous chunk and returns the next one, nil once all n
// requests have been handed out. The requests and their payloads are valid
// until the next call. After Close it never blocks.
func (s *Stream) Next() []trace.Request {
	if s.cur != nil {
		s.empty <- s.cur
	}
	s.cur = <-s.full
	if s.cur == nil {
		return nil
	}
	return s.cur.reqs
}

// Stats returns the generator's counters just before request warmup and
// after the last request. It waits for the producer to finish, so call it
// once Next has returned the last chunk.
func (s *Stream) Stats() (warm, final Stats) {
	<-s.done
	return s.warm, s.final
}

// Close stops the producer and waits for it to exit. It is safe to call more
// than once and after the stream has ended.
func (s *Stream) Close() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}
