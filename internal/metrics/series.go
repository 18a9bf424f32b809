package metrics

// Point is one cycle-interval sample: where the machine was, what it
// retired, how it moved. IPC and RawBytes are interval quantities (since the
// previous point), not cumulative, so a plot of points is directly the
// phase profile.
type Point struct {
	Cycle    uint64  `json:"cycle"`
	Retired  uint64  `json:"retired"`   // cumulative instructions retired
	IPC      float64 `json:"ipc"`       // instructions per cycle over the interval
	RawBytes uint64  `json:"raw_bytes"` // memory-controller bytes moved in the interval
	Gauges   []int   `json:"gauges"`    // occupancy values, parallel to Series gauge names
}

// Series is the cycle-interval sample ring. It is bounded: once Cap points
// have been taken the oldest are overwritten, so an arbitrarily long run
// costs O(Cap) memory and the retained window always ends at the present.
type Series struct {
	every uint64
	names []string
	buf   []Point
	next  int // ring write position
	n     int // total points ever added
}

// DefaultSeriesCap bounds the ring when the caller does not.
const DefaultSeriesCap = 4096

// NewSeries builds a ring sampling every `every` cycles with the given
// capacity (0 selects DefaultSeriesCap) over the named gauges.
func NewSeries(every uint64, capacity int, gaugeNames []string) *Series {
	if capacity <= 0 {
		capacity = DefaultSeriesCap
	}
	return &Series{
		every: every,
		names: append([]string(nil), gaugeNames...),
		buf:   make([]Point, 0, capacity),
	}
}

// Every returns the sampling period in cycles.
func (s *Series) Every() uint64 { return s.every }

// GaugeNames returns the gauge column names, in Point.Gauges order.
func (s *Series) GaugeNames() []string { return s.names }

// Add appends a point, overwriting the oldest once the ring is full. The
// point's Gauges slice is copied, so callers may reuse their scratch.
func (s *Series) Add(p Point) {
	p.Gauges = append([]int(nil), p.Gauges...)
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, p)
	} else {
		s.buf[s.next] = p
		s.next = (s.next + 1) % cap(s.buf)
	}
	s.n++
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.buf) }

// Dropped returns how many points were overwritten by the ring bound.
func (s *Series) Dropped() int { return s.n - len(s.buf) }

// Points returns the retained points oldest-first.
func (s *Series) Points() []Point {
	out := make([]Point, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// SeriesDump is the JSON-stable export of a Series: the time-series block
// carried by tartables -json cells, the tarserved result encoding, and the
// Chrome trace writer. Field order fixes the artifact's byte layout.
type SeriesDump struct {
	Every   uint64   `json:"every"`
	Gauges  []string `json:"gauges"`
	Dropped int      `json:"dropped,omitempty"`
	Points  []Point  `json:"points"`
}

// Dump exports the series oldest-first.
func (s *Series) Dump() *SeriesDump {
	return &SeriesDump{
		Every:   s.every,
		Gauges:  s.GaugeNames(),
		Dropped: s.Dropped(),
		Points:  s.Points(),
	}
}

// MeanIPC returns the average of the points' interval IPC (0 for an empty
// series) — the summary figure the tarserved /metrics endpoint exposes per
// experiment.
func (d *SeriesDump) MeanIPC() float64 {
	if d == nil || len(d.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range d.Points {
		sum += p.IPC
	}
	return sum / float64(len(d.Points))
}
