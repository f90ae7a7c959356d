// Package cache implements the set-associative caches of the simulated
// hierarchy: per-core L1/L2 and the distributed, shared, non-inclusive LLC.
//
// Caches here are timing-functional: lookups and fills mutate the state at
// issue time while latencies are applied by the caller (the hierarchy model
// in internal/sim). This is the standard fast-simulation compromise — it
// preserves hit/miss behaviour, capacity and conflict effects, and dirty
// write-back traffic, which are what the memory-system study needs.
package cache

import "coaxial/internal/memreq"

// Config sizes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Assoc is the set associativity.
	Assoc int
	// LatencyCycles is the lookup (hit) latency.
	LatencyCycles int64
}

// Way metadata is split into two parallel set-major arrays so the tag-match
// scan — the inner loop of every access — touches 8 bytes per way instead
// of a 16-byte struct. tags packs the line address with the state bits
// (tag<<2 | dirty<<1 | valid; an invalid way is stored as 0), and stamps
// holds the LRU clock, which is only read when a full set must choose a
// victim and only written on the matched way.
const (
	tagValid uint64 = 1 << 0
	tagDirty uint64 = 1 << 1
	tagShift        = 2
)

// Cache is a single set-associative write-back, write-allocate cache with
// per-set LRU replacement.
type Cache struct {
	cfg    Config
	sets   int
	mask   uint64
	tags   []uint64 // sets*assoc, set-major: tag<<2 | dirty<<1 | valid
	stamps []uint32 // sets*assoc, set-major: LRU clock at last touch
	clock  uint32
	stats  Stats
	shift  uint // additional index shift above the line offset
	hasher bool // XOR-fold high bits into the index (for shared LLC slices)
}

// Stats counts cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Fills      uint64
	DirtyEvict uint64
	CleanEvict uint64
}

// New constructs a cache. SizeBytes/Assoc must yield a power-of-two set
// count; New panics otherwise (configurations are static and validated at
// system construction).
func New(cfg Config) *Cache {
	if cfg.Assoc < 1 {
		panic("cache: associativity must be >= 1")
	}
	setBytes := cfg.Assoc * memreq.LineSize
	if cfg.SizeBytes%setBytes != 0 {
		panic("cache: size not divisible by assoc*line")
	}
	sets := cfg.SizeBytes / setBytes
	if sets&(sets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	return &Cache{
		cfg:    cfg,
		sets:   sets,
		mask:   uint64(sets - 1),
		tags:   make([]uint64, sets*cfg.Assoc),
		stamps: make([]uint32, sets*cfg.Assoc),
	}
}

// Clone returns an independent deep copy of the cache, including contents,
// LRU state, and counters. Used to snapshot warmed state between runs.
func (c *Cache) Clone() *Cache {
	d := *c
	d.tags = append([]uint64(nil), c.tags...)
	d.stamps = append([]uint32(nil), c.stamps...)
	return &d
}

// Latency returns the configured hit latency.
func (c *Cache) Latency() int64 { return c.cfg.LatencyCycles }

// Sets returns the number of sets (for tests).
func (c *Cache) Sets() int { return c.sets }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) index(lineAddr uint64) uint64 {
	// Fold high bits so distinct per-core address spaces spread over sets.
	h := lineAddr ^ (lineAddr >> 17) ^ (lineAddr >> 31)
	return h & c.mask
}

// setBase returns the flat index of lineAddr's set (its first way).
func (c *Cache) setBase(lineAddr uint64) int {
	return int(c.index(lineAddr)) * c.cfg.Assoc
}

// Lookup probes the cache for addr, updating LRU on a hit. If markDirty is
// set and the line hits, it is marked dirty (store hit).
func (c *Cache) Lookup(addr uint64, markDirty bool) bool {
	la := addr >> memreq.LineShift
	base := c.setBase(la)
	tags := c.tags[base : base+c.cfg.Assoc]
	want := la<<tagShift | tagValid
	c.stats.Accesses++
	for i := range tags {
		if tags[i]&^tagDirty == want {
			c.clock++
			c.stamps[base+i] = c.clock
			if markDirty {
				tags[i] |= tagDirty
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Probe checks residency without updating LRU or counters (used by the
// ideal CALM oracle).
func (c *Cache) Probe(addr uint64) bool {
	la := addr >> memreq.LineShift
	base := c.setBase(la)
	tags := c.tags[base : base+c.cfg.Assoc]
	want := la<<tagShift | tagValid
	for i := range tags {
		if tags[i]&^tagDirty == want {
			return true
		}
	}
	return false
}

// Victim describes a line displaced by a fill.
type Victim struct {
	Addr  uint64
	Dirty bool
	Valid bool
}

// Fill inserts addr (allocating on miss); dirty sets the installed line's
// dirty bit (e.g. an RFO fill or a write-back allocation). The displaced
// victim, if any, is returned for the caller to propagate.
func (c *Cache) Fill(addr uint64, dirty bool) Victim {
	la := addr >> memreq.LineShift
	base := c.setBase(la)
	tags := c.tags[base : base+c.cfg.Assoc]
	stamps := c.stamps[base : base+len(tags)]
	t := tagWord(la, dirty)
	c.stats.Fills++
	c.clock++
	// Refresh if already present (e.g. a racing fill), otherwise take the
	// first invalid way. The stamp array is only consulted when every way
	// is valid and a victim must be chosen.
	if i := match(tags, t); i >= 0 {
		stamps[i] = c.clock
		tags[i] |= t
		return Victim{}
	}
	var out Victim
	vi := firstFree(tags, 0)
	if vi == len(tags) {
		vi, out = c.evict(tags, stamps)
	}
	tags[vi] = t
	stamps[vi] = c.clock
	return out
}

// tagWord is the tags-array word of a valid line la with the given dirty
// bit.
func tagWord(la uint64, dirty bool) uint64 {
	t := la<<tagShift | tagValid
	if dirty {
		t |= tagDirty
	}
	return t
}

// match returns the way holding tag word t's line (ignoring the dirty
// bit), or -1.
func match(tags []uint64, t uint64) int {
	want := t &^ tagDirty
	for i, old := range tags {
		if old&^tagDirty == want {
			return i
		}
	}
	return -1
}

// firstFree returns the first invalid way at or after from, or len(tags).
func firstFree(tags []uint64, from int) int {
	for from < len(tags) && tags[from] != 0 { // invalid ways are stored as 0
		from++
	}
	return from
}

// evict chooses a full set's LRU way and returns it with the line it
// displaces, counting the eviction.
func (c *Cache) evict(tags []uint64, stamps []uint32) (int, Victim) {
	vi := lruWay(stamps)
	out := Victim{
		Addr:  tags[vi] >> tagShift << memreq.LineShift,
		Dirty: tags[vi]&tagDirty != 0,
		Valid: true,
	}
	if out.Dirty {
		c.stats.DirtyEvict++
	} else {
		c.stats.CleanEvict++
	}
	return vi, out
}

// lruWay returns the first way with the minimal stamp. Packing each way as
// stamp<<32 | way makes that a branch-free integer min: the stamp decides,
// and among equal stamps the lower way index wins.
func lruWay(stamps []uint32) int {
	m := uint64(stamps[0]) << 32
	for i := 1; i < len(stamps); i++ {
		m = min(m, uint64(stamps[i])<<32|uint64(i))
	}
	return int(uint32(m))
}

// Touch reads addr's set without mutating anything, one word per 64 bytes
// of way metadata. Callers about to Fill a batch of scattered addresses use
// it to start the host-memory misses for every set in the batch before the
// (order-sensitive) fills run, overlapping latencies that would otherwise
// serialize. The returned sum must be kept live by the caller so the loads
// are not optimized away.
func (c *Cache) Touch(addr uint64) uint64 {
	base := c.setBase(addr >> memreq.LineShift)
	tags := c.tags[base : base+c.cfg.Assoc]
	var x uint64
	for i := 0; i < len(tags); i += 8 {
		x += tags[i]
	}
	return x
}

// Invalidate removes addr if present, returning whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	la := addr >> memreq.LineShift
	base := c.setBase(la)
	tags := c.tags[base : base+c.cfg.Assoc]
	want := la<<tagShift | tagValid
	for i := range tags {
		if tags[i]&^tagDirty == want {
			d := tags[i]&tagDirty != 0
			tags[i] = 0
			c.stamps[base+i] = 0
			return true, d
		}
	}
	return false, false
}
