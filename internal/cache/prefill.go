package cache

import "coaxial/internal/memreq"

// Prefill installs a batch of lines with exactly the outcome of calling
// l.Fill(addr, dirty) for every pair each yields, in order: the same tags,
// dirty bits, LRU stamps, slice clocks and counters. It applies the fills
// in cache order instead, slice by slice and within a slice set by set, so
// each set's metadata is fetched once per batch rather than once per fill.
// That is exact because slices are independent caches and a set's state
// depends only on the fills into that set, in order, and the stamps they
// take: the k-th fill (in draw order) into a slice gets stamp clock+k+1,
// as it would in draw order, and each slice clock ends where draw order
// leaves it.
//
// The transient buffers hold 8 bytes per fill (in per-slice chunks of
// prefillChunk words), 4 bytes per LLC set, and 12 bytes per fill of the
// largest slice batch.
func (l *LLC) Prefill(each func(fill func(addr uint64, dirty bool))) {
	sets := l.slices[0].sets
	// One pass over the fills: append each tag word to its slice's chunk
	// list, which keeps draw order within the slice (a word's position
	// there is its stamp ordinal), and count the fills per set.
	chunks := make([][][]uint64, len(l.slices))
	counts := make([]uint32, len(l.slices)*sets)
	each(func(addr uint64, dirty bool) {
		si := l.SliceOf(addr)
		la := addr >> memreq.LineShift
		counts[si*sets+int(l.slices[si].index(la))]++
		cs := chunks[si]
		if n := len(cs); n == 0 || len(cs[n-1]) == prefillChunk {
			cs = append(cs, make([]uint64, 0, prefillChunk))
			chunks[si] = cs
		}
		last := &cs[len(cs)-1]
		*last = append(*last, tagWord(la, dirty))
	})
	maxFills := 0
	for _, cs := range chunks {
		if n := len(cs); n > 0 {
			maxFills = max(maxFills, (n-1)*prefillChunk+len(cs[n-1]))
		}
	}
	// Set-ordered workspace for one slice at a time: tag words and their
	// draw-order positions.
	words, ords := make([]uint64, maxFills), make([]uint32, maxFills)
	for si, c := range l.slices {
		c.prefill(chunks[si], counts[si*sets:(si+1)*sets], words, ords)
		chunks[si] = nil // release the slice's chunks as soon as they are applied
	}
}

// prefillChunk is the chunk size, in tag words, of Prefill's per-slice
// buckets: big enough to amortize the chunk allocations, small enough
// that a slice's last, partly filled chunk wastes little.
const prefillChunk = 4096

// prefill applies a batch of tag words, held in draw order in chunks,
// exactly as Fills in that order would: fill k takes stamp clock+k+1.
// counts[set] is the number of the batch's words in each set. It sorts
// the batch by set into words, with each word's batch position in ords (a
// stable counting sort), and runs each set's fills back to back.
func (c *Cache) prefill(chunks [][]uint64, counts []uint32, words []uint64, ords []uint32) {
	// counts becomes each set's first slot, then (as the scatter advances
	// it) one past its last.
	var n uint32
	for set, k := range counts {
		counts[set] = n
		n += k
	}
	var k uint32
	for _, chunk := range chunks {
		for _, w := range chunk {
			set := c.index(w >> tagShift)
			j := counts[set]
			counts[set]++
			words[j] = w
			ords[j] = k
			k++
		}
	}
	clock0 := c.clock
	lo := uint32(0)
	for set, hi := range counts {
		c.installRun(set*c.cfg.Assoc, words[lo:hi], ords[lo:hi], clock0)
		lo = hi
	}
	c.clock = clock0 + n
	c.stats.Fills += uint64(n)
}

// installRun applies a run of fills into the set at base back to back:
// fill j installs words[j] with stamp clock0+ords[j]+1, exactly as Fill
// would. Within a run ways only ever turn valid, so the first invalid way
// is tracked forward instead of searched for on every fill, and the tag
// match only scans up to the last valid way.
func (c *Cache) installRun(base int, words []uint64, ords []uint32, clock0 uint32) {
	tags := c.tags[base : base+c.cfg.Assoc]
	stamps := c.stamps[base : base+len(tags)]
	free := firstFree(tags, 0)
	used := len(tags) // ways at or past used are invalid
	for used > 0 && tags[used-1] == 0 {
		used--
	}
	for j, t := range words {
		stamp := clock0 + ords[j] + 1
		if i := match(tags[:used], t); i >= 0 {
			stamps[i] = stamp
			tags[i] |= t
			continue
		}
		vi := free
		if vi == len(tags) {
			vi, _ = c.evict(tags, stamps)
		} else {
			free = firstFree(tags, free+1)
			used = max(used, vi+1)
		}
		tags[vi] = t
		stamps[vi] = stamp
	}
}
