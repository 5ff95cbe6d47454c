package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/disksim"
	"hybridstore/internal/engine"
	"hybridstore/internal/flashsim"
	"hybridstore/internal/index"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// spanKind names one call into a module's public API that the traced run
// times.
type spanKind uint8

const (
	spanSearch spanKind = iota
	spanGetResult
	spanExecute
	spanPutResult
	spanReadList
	spanSSDRead
	spanSSDWrite
	spanSSDTrim
	spanHDDRead
	spanHDDWrite
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"hybrid.Search", "core.GetResult", "engine.Execute", "core.PutResult", "core.ReadListRange",
	"flashsim.ReadAt", "flashsim.WriteAt", "flashsim.Trim", "disksim.ReadAt", "disksim.WriteAt",
}

// spanLayer is the module each span's self time is charged to.
var spanLayer = [numSpanKinds]string{
	"hybrid", "core", "engine", "core", "core",
	"flashsim", "flashsim", "flashsim", "disksim", "disksim",
}

// span is one timed call. Times are host nanoseconds since the recorder
// started; parent is the index of the enclosing span, -1 for a root.
type span struct {
	kind       spanKind
	parent     int32
	qid        uint64
	start, end int64
}

// recorder keeps spans in memory while on; they are written out after the
// run. One goroutine drives the system, so a stack gives each span its
// parent.
type recorder struct {
	on    bool
	epoch time.Time
	qid   uint64
	spans []span
	stack []int32
}

func (r *recorder) start(capacity int) {
	r.on = true
	r.epoch = time.Now()
	r.spans = make([]span, 0, capacity)
	r.stack = r.stack[:0]
}

func (r *recorder) begin(k spanKind) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{kind: k, parent: parent, qid: r.qid, start: int64(time.Since(r.epoch))})
	id := int32(len(r.spans) - 1)
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	r.spans[id].end = int64(time.Since(r.epoch))
	r.stack = r.stack[:len(r.stack)-1]
}

// tracedDevice times reads and writes of a storage.Device.
type tracedDevice struct {
	storage.Device
	rec         *recorder
	read, write spanKind
}

func (d *tracedDevice) ReadAt(p []byte, off int64) (time.Duration, error) {
	s := d.rec.begin(d.read)
	lat, err := d.Device.ReadAt(p, off)
	d.rec.end(s)
	return lat, err
}

func (d *tracedDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	s := d.rec.begin(d.write)
	lat, err := d.Device.WriteAt(p, off)
	d.rec.end(s)
	return lat, err
}

// tracedSSD also forwards storage.Trimmer, which core.Manager looks for
// on its cache device; without it the manager would stop trimming.
type tracedSSD struct {
	tracedDevice
	ssd *flashsim.SSD
}

func (d *tracedSSD) Trim(off, n int64) (time.Duration, error) {
	s := d.rec.begin(spanSSDTrim)
	lat, err := d.ssd.Trim(off, n)
	d.rec.end(s)
	return lat, err
}

// tracedLists times the engine's list reads from the cache manager.
type tracedLists struct {
	*core.Manager
	rec *recorder
}

func (l tracedLists) ReadListRange(t workload.TermID, off int64, p []byte) error {
	s := l.rec.begin(spanReadList)
	err := l.Manager.ReadListRange(t, off, p)
	l.rec.end(s)
	return err
}

// tracedSystem is a two-level system with the index on HDD, wired from the
// same public constructors hybrid.New uses, with timing decorators at the
// device and list-source seams.
type tracedSystem struct {
	rec      recorder
	clock    *simclock.Clock
	hdd      *disksim.HDD
	ssd      *flashsim.SSD
	m        *core.Manager
	eng      *engine.Engine
	log      *workload.QueryLog
	docBytes int
	stampS   float64
	postings int64 // postings scored while recording
}

func newTracedSystem(cfg hybrid.Config, img *index.Image) (*tracedSystem, error) {
	ts := &tracedSystem{clock: simclock.New()}
	ts.hdd = disksim.New("hdd", ts.clock, disksim.DefaultParams(img.Bytes()+(1<<20)))
	t0 := time.Now()
	ix, err := img.Stamp(&tracedDevice{Device: ts.hdd, rec: &ts.rec, read: spanHDDRead, write: spanHDDWrite})
	if err != nil {
		return nil, err
	}
	ts.stampS = time.Since(t0).Seconds()

	cacheCfg := cfg.Cache
	if cfg.UseModelPU {
		cacheCfg.PU = workload.NewUtilizationModel(cfg.Collection).PU
	}
	// The cache SSD runs on a private clock, as in hybrid.New: the manager
	// charges foreground read time to the shared clock itself.
	need := cacheCfg.SSDResultBytes + cacheCfg.SSDListBytes + (2 << 20)
	ts.ssd = flashsim.New("cache-ssd", simclock.New(), flashsim.DefaultParams(need))
	dev := &tracedSSD{tracedDevice{Device: ts.ssd, rec: &ts.rec, read: spanSSDRead, write: spanSSDWrite}, ts.ssd}
	if ts.m, err = core.New(ts.clock, ix, dev, cacheCfg); err != nil {
		return nil, err
	}
	engCfg := cfg.Engine
	engCfg.Clock = ts.clock
	ts.eng = engine.New(tracedLists{ts.m, &ts.rec}, engCfg)
	ts.docBytes = engCfg.DocResultBytes
	if ts.docBytes <= 0 {
		ts.docBytes = 400
	}
	ts.log = workload.NewQueryLog(cfg.QueryLog)
	return ts, nil
}

// search is hybrid.System.Search's two-level path with spans around each
// call into core and engine.
func (ts *tracedSystem) search(q workload.Query) (*engine.Result, hybrid.SearchInfo, error) {
	ts.rec.qid = q.ID
	root := ts.rec.begin(spanSearch)
	defer ts.rec.end(root)
	sw := simclock.StartStopwatch(ts.clock)
	m := ts.m
	m.BeginQuery(q.ID)

	s := ts.rec.begin(spanGetResult)
	data, src := m.GetResult(q.ID)
	ts.rec.end(s)
	if src != core.ResultMiss {
		res, err := engine.DecodeResult(data)
		info := hybrid.SearchInfo{Cached: true, Source: src, Elapsed: sw.Elapsed()}
		m.EndQuery(info.Elapsed)
		return res, info, err
	}

	s = ts.rec.begin(spanExecute)
	res, stats, err := ts.eng.Execute(q)
	ts.rec.end(s)
	if err != nil {
		m.EndQuery(sw.Elapsed())
		return nil, hybrid.SearchInfo{Elapsed: sw.Elapsed()}, err
	}
	if ts.rec.on {
		ts.postings += stats.PostingsScored
	}
	for _, t := range stats.Terms {
		m.RecordUtilization(t.Term, t.Utilization)
	}
	entry := m.PadResult(res.Encode(ts.docBytes))
	s = ts.rec.begin(spanPutResult)
	err = m.PutResult(q.ID, entry)
	ts.rec.end(s)
	if err != nil {
		m.EndQuery(sw.Elapsed())
		return nil, hybrid.SearchInfo{Elapsed: sw.Elapsed()}, err
	}
	info := hybrid.SearchInfo{Elapsed: sw.Elapsed(), BytesRead: stats.BytesRead}
	m.EndQuery(info.Elapsed)
	return res, info, nil
}

func (ts *tracedSystem) view() *view {
	return &view{search: ts.search, log: ts.log, clock: ts.clock, m: ts.m, ssd: ts.ssd, hdd: ts.hdd}
}

// spanStats folds spans into per-kind counts and self times. A span's self
// time is its duration minus its children's durations; children never
// overlap because one goroutine drives the system.
type spanStats struct {
	count [numSpanKinds]int64
	self  [numSpanKinds]int64
	selfs [numSpanKinds][]int64
	total int64 // summed duration of root spans
}

func analyzeSpans(spans []span) *spanStats {
	st := &spanStats{}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range spans {
		d := s.end - s.start
		self := d - child[i]
		st.count[s.kind]++
		st.self[s.kind] += self
		st.selfs[s.kind] = append(st.selfs[s.kind], self)
		if s.parent < 0 {
			st.total += d
		}
	}
	return st
}

// layerSelf sums the self time charged to one module.
func (st *spanStats) layerSelf(layer string) int64 {
	var sum int64
	for k, l := range spanLayer {
		if l == layer {
			sum += st.self[k]
		}
	}
	return sum
}

// writeSpans dumps spans as gzipped tab-separated lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\tqid\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.qid, spanNames[s.kind], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
