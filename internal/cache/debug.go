package cache

import "fmt"

// DebugDirtyCount reports (dirty, valid) line counts (test helper).
func (c *Cache) DebugDirtyCount() (dirty, valid int) {
	for _, t := range c.tags {
		if t&tagValid != 0 {
			valid++
			if t&tagDirty != 0 {
				dirty++
			}
		}
	}
	return
}

// DebugDiff describes the first difference between two LLCs' complete
// state (tags with dirty bits, LRU stamps, slice clocks, counters), or
// returns "" when they are identical (test helper).
func (l *LLC) DebugDiff(o *LLC) string {
	if len(l.slices) != len(o.slices) {
		return fmt.Sprintf("%d vs %d slices", len(l.slices), len(o.slices))
	}
	for i, a := range l.slices {
		if d := a.debugDiff(o.slices[i]); d != "" {
			return fmt.Sprintf("slice %d: %s", i, d)
		}
	}
	return ""
}

func (c *Cache) debugDiff(o *Cache) string {
	switch {
	case len(c.tags) != len(o.tags):
		return fmt.Sprintf("%d vs %d ways", len(c.tags), len(o.tags))
	case c.clock != o.clock:
		return fmt.Sprintf("clock %d vs %d", c.clock, o.clock)
	case c.stats != o.stats:
		return fmt.Sprintf("stats %+v vs %+v", c.stats, o.stats)
	}
	for w := range c.tags {
		if c.tags[w] != o.tags[w] || c.stamps[w] != o.stamps[w] {
			return fmt.Sprintf("set %d way %d: tag %#x stamp %d vs tag %#x stamp %d",
				w/c.cfg.Assoc, w%c.cfg.Assoc, c.tags[w], c.stamps[w], o.tags[w], o.stamps[w])
		}
	}
	return ""
}
