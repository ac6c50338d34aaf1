package mem

import (
	"fmt"
	"math/bits"
)

// WritePolicy selects the cache's handling of stores.
type WritePolicy uint8

const (
	// WriteThrough: stores update the line if present and are passed to
	// the next level by the owner of the store path (write buffer or
	// Communication Buffer); misses do not allocate. This is the L1
	// policy UnSync requires (paper §III-C1).
	WriteThrough WritePolicy = iota
	// WriteBack: stores allocate and dirty the line; dirty victims are
	// written back on eviction.
	WriteBack
)

// String names the policy.
func (p WritePolicy) String() string {
	if p == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// Protection is the error-protection scheme on the cache array. It has
// no timing effect in this model; it determines fault-detection coverage
// (internal/fault) and area/power (internal/hwmodel).
type Protection uint8

const (
	ProtNone Protection = iota
	ProtParity
	ProtSECDED
)

// String names the protection scheme.
func (p Protection) String() string {
	switch p {
	case ProtParity:
		return "parity"
	case ProtSECDED:
		return "secded"
	}
	return "none"
}

// CacheConfig describes one cache.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency uint64
	MSHRs      int
	Policy     WritePolicy
	Protect    Protection
}

// Validate checks structural invariants.
func (c *CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: cache %q: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("mem: cache %q: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: cache %q: %d sets not a power of two", c.Name, sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.MSHRs < 1 {
		return fmt.Errorf("mem: cache %q: needs at least one MSHR", c.Name)
	}
	return nil
}

// Sets returns the number of sets.
func (c *CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Lines returns the total number of lines.
func (c *CacheConfig) Lines() int { return c.SizeBytes / c.LineBytes }

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

type mshr struct {
	lineAddr uint64
	done     uint64
}

// CacheStats counts cache events.
type CacheStats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Coalesced   uint64 // misses merged into an in-flight MSHR
	MSHRStalls  uint64 // misses delayed waiting for a free MSHR
	Writebacks  uint64 // dirty evictions (write-back policy)
	Fills       uint64 // lines installed
	Invalidates uint64
}

// MissRate returns misses per access.
func (s *CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative, LRU, timing-only cache with a finite number
// of MSHRs. It implements Port.
type Cache struct {
	Cfg   CacheConfig
	Stats CacheStats

	next     Port
	sets     [][]line
	mshrs    []mshr
	setShift uint
	setMask  uint64
	tagShift uint // bits.Len64(setMask): the set-index width
}

// NewCache builds a cache on top of the given next level. It panics on
// invalid configuration (configurations are static data).
func NewCache(cfg CacheConfig, next Port) *Cache {
	if err := cfg.Validate(); err != nil {
		//unsync:allow-panic cache geometries are validated at the public API boundary
		panic(err)
	}
	if next == nil {
		//unsync:allow-panic invariant: the hierarchy always wires a next level below every cache
		panic(fmt.Sprintf("mem: cache %q: nil next level", cfg.Name))
	}
	c := &Cache{Cfg: cfg, next: next}
	nSets := cfg.Sets()
	c.sets = make([][]line, nSets)
	backing := make([]line, nSets*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	c.mshrs = make([]mshr, cfg.MSHRs)
	for shift := uint(0); ; shift++ {
		if 1<<shift == cfg.LineBytes {
			c.setShift = shift
			break
		}
	}
	c.setMask = uint64(nSets - 1)
	c.tagShift = uint(bits.Len64(c.setMask))
	return c
}

func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.setShift }
func (c *Cache) setOf(la uint64) int         { return int(la & c.setMask) }
func (c *Cache) tagOf(la uint64) uint64      { return la >> c.tagShift }

// lookup finds the way of la in its set, or -1.
func (c *Cache) lookup(la uint64) int {
	set := c.sets[c.setOf(la)]
	tag := c.tagOf(la)
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			return w
		}
	}
	return -1
}

// Access implements Port. For WriteThrough caches a store miss does not
// allocate; propagation of store data to the next level is the
// responsibility of the store-path owner (write buffer / CB), not the
// cache.
func (c *Cache) Access(now uint64, addr uint64, write bool) (done uint64, hit bool) {
	c.Stats.Accesses++
	la := c.lineAddr(addr)
	set := c.sets[c.setOf(la)]

	if w := c.lookup(la); w >= 0 {
		c.Stats.Hits++
		set[w].lastUse = now
		if write && c.Cfg.Policy == WriteBack {
			set[w].dirty = true
		}
		// If the line's fill is still in flight, the access completes
		// when the fill does.
		for i := range c.mshrs {
			if c.mshrs[i].done > now && c.mshrs[i].lineAddr == la {
				c.Stats.Coalesced++
				done = c.mshrs[i].done
				if min := now + c.Cfg.HitLatency; done < min {
					done = min
				}
				return done, true
			}
		}
		return now + c.Cfg.HitLatency, true
	}

	c.Stats.Misses++

	// Store misses never fetch synchronously: under write-through the
	// line is simply not allocated (no-write-allocate); under
	// write-back the line is installed dirty without a fill
	// (write-validate), which is how a store buffer keeps store misses
	// off the commit critical path.
	if write {
		if c.Cfg.Policy == WriteBack {
			c.install(la, now, true)
		}
		return now + c.Cfg.HitLatency, false
	}

	// Coalesce with an in-flight miss to the same line.
	for i := range c.mshrs {
		if c.mshrs[i].done > now && c.mshrs[i].lineAddr == la {
			c.Stats.Coalesced++
			return c.mshrs[i].done, false
		}
	}

	// Claim an MSHR, stalling until one frees if all are busy.
	issue := now
	slot := -1
	var earliest uint64 = ^uint64(0)
	for i := range c.mshrs {
		if c.mshrs[i].done <= now {
			slot = i
			break
		}
		if c.mshrs[i].done < earliest {
			earliest = c.mshrs[i].done
			slot = i
		}
	}
	if c.mshrs[slot].done > now {
		c.Stats.MSHRStalls++
		issue = c.mshrs[slot].done
	}

	fillDone, _ := c.next.Access(issue+c.Cfg.HitLatency, la<<c.setShift, false)
	c.mshrs[slot] = mshr{lineAddr: la, done: fillDone}

	c.install(la, now, write && c.Cfg.Policy == WriteBack)
	return fillDone, false
}

// install places la in its set, evicting LRU and writing back dirty
// victims at the request time now. (The writeback must not be issued at
// the future fill-completion time: the bus model books occupancy from
// the requested cycle, and a far-future reservation would serialize
// every later request behind it.)
func (c *Cache) install(la uint64, now uint64, dirty bool) {
	set := c.sets[c.setOf(la)]
	victim := 0
	for w := range set {
		if !set[w].valid {
			victim = w
			break
		}
		if set[w].lastUse < set[victim].lastUse {
			victim = w
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.Stats.Writebacks++
		// Reconstruct the victim's address and push it down.
		victimLA := set[victim].tag<<c.tagShift | uint64(c.setOf(la))
		c.next.Access(now, victimLA<<c.setShift, true)
	}
	set[victim] = line{tag: c.tagOf(la), valid: true, dirty: dirty, lastUse: now}
	c.Stats.Fills++
}

// ResetStats zeroes the counters without disturbing the cache contents
// (warmed lines stay resident). Measurement engines call it at the
// warmup→measure transition via Hierarchy.ResetStats.
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }

// Present reports whether addr's line is resident (for tests and fault
// targeting).
func (c *Cache) Present(addr uint64) bool { return c.lookup(c.lineAddr(addr)) >= 0 }

// ValidLines returns the number of resident lines.
func (c *Cache) ValidLines() int {
	n := 0
	for _, set := range c.sets {
		for _, l := range set {
			if l.valid {
				n++
			}
		}
	}
	return n
}

// DirtyLines returns the number of resident dirty lines.
func (c *Cache) DirtyLines() int {
	n := 0
	for _, set := range c.sets {
		for _, l := range set {
			if l.valid && l.dirty {
				n++
			}
		}
	}
	return n
}

// InvalidateAll empties the cache (UnSync recovery invalidates the
// erroneous core's L1; clean lines can simply be refetched from the
// ECC-protected L2).
func (c *Cache) InvalidateAll() {
	for _, set := range c.sets {
		for w := range set {
			if set[w].valid {
				c.Stats.Invalidates++
			}
			set[w] = line{}
		}
	}
}
