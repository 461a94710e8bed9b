package telemetry

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/svgplot"
)

// Point is one time-series observation in virtual time.
type Point struct {
	At    time.Duration
	Value float64
}

// Series is one named virtual-time series.
type Series struct {
	Name   string
	Points []Point
}

// Last returns the most recent observation (zero Point when empty).
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// SeriesSet holds the series of one run, preserving first-observation
// order so exports are deterministic. It is the sink of the sampled view:
// attached beside the other sinks (Combine), it observes Sample events and
// ignores every other kind.
type SeriesSet struct {
	order  []string
	byName map[string]*Series
}

// NewSeriesSet returns an empty set.
func NewSeriesSet() *SeriesSet {
	return &SeriesSet{byName: make(map[string]*Series)}
}

// Event implements Sink: a Sample event becomes one observation of the
// series its Detail names.
func (ss *SeriesSet) Event(e Event) {
	if e.Kind == Sample {
		ss.Observe(e.Detail, e.At, e.Value)
	}
}

// Lifecycle declines per-request lifecycle events, so a run whose only
// reader is a series set never has them built.
func (ss *SeriesSet) Lifecycle() bool { return false }

// LaneSeriesName is the name lane's series carries in a multi-lane run:
// "t<lane>/<name>". The merged series and the lanes' Sample event lines use
// it alike.
func LaneSeriesName(lane int, name string) string {
	return "t" + strconv.Itoa(lane) + "/" + name
}

// MergeLanes combines one series set per lane into the run's set. One lane
// is returned as is; several are laid out in lane order, each lane's series
// in its own first-observation order and renamed by LaneSeriesName.
func MergeLanes(lanes []*SeriesSet) *SeriesSet {
	if len(lanes) == 1 {
		return lanes[0]
	}
	out := NewSeriesSet()
	for lane, ss := range lanes {
		for _, name := range ss.order {
			s := &Series{Name: LaneSeriesName(lane, name), Points: ss.byName[name].Points}
			out.byName[s.Name] = s
			out.order = append(out.order, s.Name)
		}
	}
	return out
}

// Observe appends one observation, creating the series on first use.
func (ss *SeriesSet) Observe(name string, at time.Duration, v float64) {
	s, ok := ss.byName[name]
	if !ok {
		s = &Series{Name: name}
		ss.byName[name] = s
		ss.order = append(ss.order, name)
	}
	s.Points = append(s.Points, Point{At: at, Value: v})
}

// Names returns the series names in first-observation order.
func (ss *SeriesSet) Names() []string { return ss.order }

// Get returns the named series, or nil.
func (ss *SeriesSet) Get(name string) *Series { return ss.byName[name] }

// Len returns the number of series.
func (ss *SeriesSet) Len() int { return len(ss.order) }

// WriteCSV exports the set as one aligned table: a t_s column followed by
// one column per series, one row per distinct sample instant (cells are
// empty where a series has no observation at that instant).
func (ss *SeriesSet) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// Series names are free-form, so the header goes through encoding/csv
	// for its quoting rules; the data rows are all numeric (never quoted)
	// and are appended into one reused buffer.
	cw := csv.NewWriter(bw)
	header := append([]string{"t_s"}, ss.order...)
	if err := cw.Write(header); err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	// The sampler observes every series at every tick, so the instants of
	// the longest series cover the union in order; merge defensively anyway.
	times := ss.mergedTimes()
	cursor := make([]int, len(ss.order))
	var buf []byte
	for _, t := range times {
		buf = strconv.AppendFloat(buf[:0], t.Seconds(), 'f', 6, 64)
		for i, name := range ss.order {
			buf = append(buf, ',')
			pts := ss.byName[name].Points
			if cursor[i] < len(pts) && pts[cursor[i]].At == t {
				buf = strconv.AppendFloat(buf, pts[cursor[i]].Value, 'g', -1, 64)
				cursor[i]++
			}
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// mergedTimes returns the sorted union of sample instants across series.
// Each series is individually time-ordered, so this is a k-way merge.
func (ss *SeriesSet) mergedTimes() []time.Duration {
	cursor := make([]int, len(ss.order))
	var out []time.Duration
	for {
		best, found := time.Duration(0), false
		for i, name := range ss.order {
			pts := ss.byName[name].Points
			if cursor[i] < len(pts) && (!found || pts[cursor[i]].At < best) {
				best, found = pts[cursor[i]].At, true
			}
		}
		if !found {
			return out
		}
		out = append(out, best)
		for i, name := range ss.order {
			pts := ss.byName[name].Points
			for cursor[i] < len(pts) && pts[cursor[i]].At == best {
				cursor[i]++
			}
		}
	}
}

// ReadSeriesCSV parses a table previously written with WriteCSV.
func ReadSeriesCSV(r io.Reader) (*SeriesSet, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 || len(rows[0]) < 2 || rows[0][0] != "t_s" {
		return nil, fmt.Errorf("telemetry: not a series CSV (want a t_s header)")
	}
	names := rows[0][1:]
	ss := NewSeriesSet()
	for ri, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			return nil, fmt.Errorf("telemetry: row %d has %d columns, want %d", ri+2, len(row), len(rows[0]))
		}
		sec, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: row %d column t_s: %w", ri+2, err)
		}
		at := time.Duration(sec * float64(time.Second))
		for ci, cell := range row[1:] {
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: row %d column %s: %w", ri+2, names[ci], err)
			}
			ss.Observe(names[ci], at, v)
		}
	}
	return ss, nil
}

// TimelineSVG renders the named series (all of them when names is empty)
// as a multi-series line chart over virtual time.
func (ss *SeriesSet) TimelineSVG(w io.Writer, title string, names ...string) error {
	if len(names) == 0 {
		names = ss.order
	}
	fig := &svgplot.Lines{Title: title, XLabel: "virtual time (s)", YLabel: "value"}
	for _, name := range names {
		s := ss.byName[name]
		if s == nil {
			continue
		}
		pts := make([][2]float64, len(s.Points))
		for i, p := range s.Points {
			pts[i] = [2]float64{p.At.Seconds(), p.Value}
		}
		fig.Series = append(fig.Series, svgplot.LineSeries{Name: name, Points: pts})
	}
	return fig.Render(w)
}

// Gauge is one sampled quantity: a name and a side-effect-free reader.
type Gauge struct {
	Name string
	Read func() float64
}
