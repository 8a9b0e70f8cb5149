package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"cludistream/internal/linalg"
	"cludistream/internal/query"
)

// The read load: closed-loop POST /query/batch requests (the binary CLUQ
// protocol) over one keep-alive loopback connection, rotating classify,
// density and top-k over a fixed pool of point batches.

const (
	// batchN is the points per request: enough that scoring, not the
	// HTTP round trip, takes most of a request. At 256 points the round
	// trip was a third to half of it, and its loopback latency swung
	// between runs by more than the scoring did.
	batchN      = 1024
	poolBatches = 32
	topK        = 3
	// verifyEvery keeps every Nth response for the bit-for-bit check
	// against the same op recomputed in-process after the run.
	verifyEvery = 8
	// postReads is the request count of the read phase that follows
	// ingest on the workloads whose reads do not run beside it: enough for
	// a supported p99 (1000 samples leave 10 beyond it).
	postReads = 1200
)

var opRotation = []int{query.OpClassify, query.OpDensity, query.OpTopK}

// recSize is the response payload size of one point.
func recSize(op int) int {
	switch op {
	case query.OpClassify:
		return 20
	case query.OpDensity:
		return 8
	default:
		return topK * 12
	}
}

// encodeBatch builds a CLUQ request body.
func encodeBatch(op int, pts []float64) []byte {
	n := len(pts) / dim
	b := make([]byte, 0, 14+len(pts)*8)
	b = append(b, "CLUQ"...)
	b = append(b, 1, byte(op))
	b = binary.LittleEndian.AppendUint16(b, topK)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint16(b, dim)
	for _, v := range pts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// querySample is one kept response for the post-run check.
type querySample struct {
	batch, op int
	resp      []byte
}

// reader is one closed-loop client. Not safe for concurrent use.
type reader struct {
	clk    *clock
	url    string
	tr     *http.Transport
	hc     *http.Client
	pool   [][]float64
	bodies [][]byte // [batch*len(opRotation)+rot]
	// coordVer reads the coordinator version last captured by the
	// publish loop, for the staleness of each answer.
	coordVer func() uint64

	lat      []float64 // ms per request
	ops      []int
	points   int
	failed   int
	samples  []querySample
	versions []uint64
	stale    []float64 // versions behind the coordinator, per request
	start    time.Duration
	end      time.Duration
}

func newReader(clk *clock, addr string, pool [][]float64, coordVer func() uint64) *reader {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	r := &reader{
		clk: clk, url: "http://" + addr + "/query/batch",
		tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		pool: pool, coordVer: coordVer,
	}
	for _, pts := range pool {
		for _, op := range opRotation {
			r.bodies = append(r.bodies, encodeBatch(op, pts))
		}
	}
	return r
}

// run issues requests until stop is closed (stop != nil) or n requests
// were made.
func (r *reader) run(n int, stop <-chan struct{}) {
	r.start = r.clk.now()
	for i := 0; ; i++ {
		if stop != nil {
			select {
			case <-stop:
				r.end = r.clk.now()
				return
			default:
			}
		} else if i >= n {
			break
		}
		r.one(i)
	}
	r.end = r.clk.now()
}

func (r *reader) one(i int) {
	rot := i % len(opRotation)
	b := (i / len(opRotation)) % len(r.pool)
	op := opRotation[rot]
	t0 := r.clk.now()
	resp, err := r.hc.Post(r.url, "application/octet-stream", bytes.NewReader(r.bodies[b*len(opRotation)+rot]))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	t1 := r.clk.now()
	r.lat = append(r.lat, float64(t1-t0)/float64(time.Millisecond))
	r.ops = append(r.ops, op)
	if err != nil {
		r.failed++
		return
	}
	ver, perr := parseBatchHeader(body, op, len(r.pool[b])/dim)
	if perr != nil {
		r.failed++
		return
	}
	r.points += len(r.pool[b]) / dim
	r.versions = append(r.versions, ver)
	if r.coordVer != nil {
		r.stale = append(r.stale, float64(r.coordVer()-ver))
	}
	if i%verifyEvery == 0 {
		r.samples = append(r.samples, querySample{batch: b, op: op, resp: body})
	}
}

func (r *reader) close() { r.tr.CloseIdleConnections() }

// parseBatchHeader checks a CLUR response's framing and returns the
// snapshot version that answered it.
func parseBatchHeader(b []byte, op, n int) (uint64, error) {
	if len(b) < 18 || string(b[:4]) != "CLUR" || b[4] != 1 || int(b[5]) != op {
		return 0, fmt.Errorf("bad response header")
	}
	if got := int(binary.LittleEndian.Uint32(b[14:18])); got != n {
		return 0, fmt.Errorf("response n %d, want %d", got, n)
	}
	if len(b) != 18+n*recSize(op) {
		return 0, fmt.Errorf("response of %d bytes, want %d", len(b), 18+n*recSize(op))
	}
	return binary.LittleEndian.Uint64(b[6:14]), nil
}

// verify recomputes every kept response in-process on the snapshot of
// the version that answered it and compares bit for bit. It returns the
// number of mismatched responses.
func verifyAnswers(samples []querySample, pool [][]float64, snaps map[uint64]*query.Snapshot) (int, error) {
	bad := 0
	sc := query.NewScratch()
	x := make(linalg.Vector, dim)
	for _, s := range samples {
		ver := binary.LittleEndian.Uint64(s.resp[6:14])
		sn := snaps[ver]
		if sn == nil {
			return bad, fmt.Errorf("response names snapshot version %d, which was never published", ver)
		}
		pts := pool[s.batch]
		out := s.resp[18:]
		ok := true
		for p := 0; p < len(pts)/dim && ok; p++ {
			copy(x, pts[p*dim:(p+1)*dim])
			rec := out[p*recSize(s.op):]
			switch s.op {
			case query.OpClassify:
				c := sn.Classify(x, sc)
				ok = binary.LittleEndian.Uint32(rec) == uint32(c.Component) &&
					binary.LittleEndian.Uint64(rec[4:]) == math.Float64bits(c.LogPosterior) &&
					binary.LittleEndian.Uint64(rec[12:]) == math.Float64bits(c.LogDensity)
			case query.OpDensity:
				ok = binary.LittleEndian.Uint64(rec) == math.Float64bits(sn.LogDensity(x, sc))
			default:
				nb := sn.TopK(x, topK, sc)
				for j := 0; j < topK && ok; j++ {
					id, d2 := ^uint32(0), math.Inf(1)
					if j < len(nb) {
						id, d2 = uint32(nb[j].ID), nb[j].DistSq
					}
					ok = binary.LittleEndian.Uint32(rec[j*12:]) == id &&
						binary.LittleEndian.Uint64(rec[j*12+4:]) == math.Float64bits(d2)
				}
			}
		}
		if !ok {
			bad++
		}
	}
	return bad, nil
}

// inprocNs times each op through an in-process Querier on the served
// snapshot: mean ns per point over the whole pool, repeated reps times.
func inprocNs(pub *query.Publisher, pool [][]float64, reps int) map[int]float64 {
	q := pub.NewQuerier()
	defer q.Flush()
	x := make([]float64, dim)
	out := map[int]float64{}
	for _, op := range opRotation {
		n := 0
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, pts := range pool {
				for p := 0; p < len(pts)/dim; p++ {
					copy(x, pts[p*dim:(p+1)*dim])
					switch op {
					case query.OpClassify:
						q.Classify(x)
					case query.OpDensity:
						q.LogDensity(x)
					default:
						q.TopK(x, topK)
					}
					n++
				}
			}
		}
		out[op] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return out
}

// snapStore keeps every published snapshot by version, for the answer
// check.
type snapStore struct {
	mu sync.Mutex
	m  map[uint64]*query.Snapshot
}

func (s *snapStore) put(sn *query.Snapshot) {
	s.mu.Lock()
	if s.m == nil {
		s.m = map[uint64]*query.Snapshot{}
	}
	s.m[sn.Version()] = sn
	s.mu.Unlock()
}

func (s *snapStore) all() map[uint64]*query.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m
}
