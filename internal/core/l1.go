package core

// l1cache is the EV8 first-level data cache: small (64 KB, Table 3), 2-way,
// write-back. It exists in the model for two reasons: it gives the scalar
// baseline its fast path, and it participates in the P-bit scalar↔vector
// coherency protocol (invalidates arrive from the L2 when the Vbox touches
// a line the core holds).
type l1cache struct {
	sets   [][]l1way
	mask   uint64
	lgLine uint
	clock  uint64
}

type l1way struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

func newL1(bytes, assoc, line int) *l1cache {
	nsets := bytes / (line * assoc)
	c := &l1cache{sets: make([][]l1way, nsets), mask: uint64(nsets - 1)}
	for line > 1 {
		line >>= 1
		c.lgLine++
	}
	// Every set is cut from one backing array; the full slice expressions
	// keep a set from growing into the next.
	ways := make([]l1way, nsets*assoc)
	for i := range c.sets {
		c.sets[i] = ways[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return c
}

func (c *l1cache) set(line uint64) []l1way {
	return c.sets[(line>>c.lgLine)&c.mask]
}

// probe reports whether the line is present (and refreshes its LRU state).
func (c *l1cache) probe(line uint64) bool {
	s := c.set(line)
	for i := range s {
		if s[i].valid && s[i].tag == line {
			c.clock++
			s[i].lru = c.clock
			return true
		}
	}
	return false
}

// markDirty marks a present line dirty (store hit).
func (c *l1cache) markDirty(line uint64) {
	s := c.set(line)
	for i := range s {
		if s[i].valid && s[i].tag == line {
			s[i].dirty = true
			return
		}
	}
}

// fill installs a line, returning the victim's address and dirtiness when a
// dirty line had to be evicted (the caller writes it through to the L2).
func (c *l1cache) fill(line uint64, dirty bool) (victim uint64, victimDirty bool) {
	s := c.set(line)
	v := 0
	for i := range s {
		if !s[i].valid {
			v = i
			break
		}
		if s[i].lru < s[v].lru {
			v = i
		}
	}
	victim, victimDirty = s[v].tag, s[v].valid && s[v].dirty
	c.clock++
	s[v] = l1way{tag: line, valid: true, dirty: dirty, lru: c.clock}
	return victim, victimDirty
}

// walk calls fn for every valid line, stopping early if fn returns false.
// It reads tags only — no LRU touch — so the invariant checker's inclusion
// sweep cannot perturb replacement order.
func (c *l1cache) walk(fn func(line uint64) bool) {
	for _, s := range c.sets {
		for i := range s {
			if s[i].valid && !fn(s[i].tag) {
				return
			}
		}
	}
}

// invalidate removes the line if present, returning whether it was dirty
// (a dirty copy is written through to the L2 by the protocol).
func (c *l1cache) invalidate(line uint64) bool {
	s := c.set(line)
	for i := range s {
		if s[i].valid && s[i].tag == line {
			dirty := s[i].dirty
			s[i] = l1way{}
			return dirty
		}
	}
	return false
}
