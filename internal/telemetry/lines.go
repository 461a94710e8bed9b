package telemetry

import (
	"io"
	"time"
)

// chunkSize is the capacity of the byte chunks a lane stores its encoded
// lines in. Chunks are recycled through the lane's free list once written,
// so a lane allocates the chunks it holds at its peak and never copies a
// line to grow a buffer.
const chunkSize = 4 << 10

// lineReserve is the room a chunk must have left for the next line to be
// encoded into it in place: more than any span or event line the runtime
// produces. A longer line is still stored whole, by growing its chunk.
const lineReserve = 512

// lines is a queue of encoded JSONL lines in lane-FIFO order: their bytes
// back to back in chunks, and an index of groups — consecutive lines with
// one merge key, in one chunk. Keys never decrease. The requests of a batch
// job complete together, so a group is usually a job's lines, and the merge
// moves it whole: lines with equal keys from one lane are never split by
// another lane's.
type lines struct {
	chunks [][]byte
	groups []lineGroup
	n      int // lines queued
}

type lineGroup struct {
	key   time.Duration
	chunk int32 // index in chunks
	end   int32 // offset in the chunk just past the group's last newline
	n     int32 // lines in the group
}

// tail returns the chunk the next line is appended to: the last one, or a
// chunk from free when the last has less than lineReserve bytes left.
func (q *lines) tail(free *[][]byte) *[]byte {
	n := len(q.chunks)
	if n == 0 || cap(q.chunks[n-1])-len(q.chunks[n-1]) < lineReserve {
		var c []byte
		if f := *free; len(f) > 0 {
			c, *free = f[len(f)-1], f[:len(f)-1]
		} else {
			c = make([]byte, 0, chunkSize)
		}
		q.chunks = append(q.chunks, c)
		n++
	}
	return &q.chunks[n-1]
}

// push records the n lines just appended to the tail chunk under key.
func (q *lines) push(key time.Duration, n int) {
	c := int32(len(q.chunks) - 1)
	end := int32(len(q.chunks[c]))
	if g := len(q.groups) - 1; g >= 0 && q.groups[g].key == key && q.groups[g].chunk == c {
		q.groups[g].end = end
		q.groups[g].n += int32(n)
	} else {
		q.groups = append(q.groups, lineGroup{key: key, chunk: c, end: end, n: int32(n)})
	}
	q.n += n
}

// start returns the offset of group i in its chunk.
func (q *lines) start(i int) int32 {
	if i > 0 && q.groups[i-1].chunk == q.groups[i].chunk {
		return q.groups[i-1].end
	}
	return 0
}

// writeRun writes groups [from, to) to out, one write per chunk they span,
// and returns the number of lines written.
func (q *lines) writeRun(out io.Writer, from, to int) (int, error) {
	written := 0
	for from < to {
		c, start, n := q.groups[from].chunk, q.start(from), q.groups[from].n
		for from+1 < to && q.groups[from+1].chunk == c {
			from++
			n += q.groups[from].n
		}
		if _, err := out.Write(q.chunks[c][start:q.groups[from].end]); err != nil {
			return written, err
		}
		written += int(n)
		from++
	}
	return written, nil
}

// size is the number of encoded bytes queued.
func (q *lines) size() int {
	n := 0
	for _, c := range q.chunks {
		n += len(c)
	}
	return n
}

// release empties q, returning its chunks to free.
func (q *lines) release(free *[][]byte) {
	for _, c := range q.chunks {
		*free = append(*free, c[:0])
	}
	clear(q.chunks)
	q.chunks, q.groups, q.n = q.chunks[:0], q.groups[:0], 0
}

// cutThrough moves the leading lines of *live with key <= t onto the end of
// *cut. When *cut is empty and every line qualifies, the queues swap.
// Otherwise the lines are copied, group by group, those moving onto *cut
// and those staying into fresh chunks of *live; the sharded executor only
// cuts at barriers, where every line qualifies.
func cutThrough(live, cut *lines, t time.Duration, free *[][]byte) {
	gs := live.groups
	n := len(gs)
	for n > 0 && gs[n-1].key > t {
		n--
	}
	switch {
	case n == 0:
	case n == len(gs) && cut.n == 0:
		*live, *cut = *cut, *live
	default:
		var rest lines
		for i, g := range gs {
			dst := cut
			if i >= n {
				dst = &rest
			}
			c := dst.tail(free)
			*c = append(*c, live.chunks[g.chunk][live.start(i):g.end]...)
			dst.push(g.key, int(g.n))
		}
		live.release(free)
		*live = rest
	}
}
