package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ksp"
	"ksp/internal/gen"
	"ksp/internal/nt"
	"ksp/internal/rdf"
)

// query is one pool entry: a location and its keywords (k is fixed per
// workload).
type query struct {
	X, Y     float64
	Keywords []string
}

func (q query) String() string {
	return strconv.FormatFloat(q.X, 'g', -1, 64) + " " +
		strconv.FormatFloat(q.Y, 'g', -1, 64) + " " + strings.Join(q.Keywords, ",")
}

// seqLen is the length of the pre-drawn request sequence; longer runs
// wrap around it.
const seqLen = 1 << 17

// inputs is everything a run derives from its seed before timing starts.
type inputs struct {
	seed int64
	// graph is the generated graph (the traced run builds its own
	// engine over it).
	graph *rdf.Graph
	// ntPath is the N-Triples file (ntriples serving, or the traced
	// run's parse measurement); snapPath the snapshot file.
	ntPath   string
	snapPath string
	// saveS is the snapshot write time (store.save_s); 0 when no
	// snapshot was written.
	saveS float64
	pool  []query
	// seq is the seeded request sequence: an entry >= 0 is a pool index,
	// an entry v < 0 a /describe of vertex -(v+1).
	seq []int32
	// arrivals is the open-loop schedule: offsets from the phase start.
	arrivals    []time.Duration
	fingerprint string
}

// datasetSeed fixes the generated graph and the query pool of each
// dataset shape, as the paper evaluates fixed query sets over fixed
// DBpedia and Yago dumps; the run's seed draws the traffic over them:
// which pool queries are sent in which order, the Zipf ranking, the
// /describe vertices and the open-loop arrivals. With the graph drawn
// from the run's seed, the graph alone moved yago_spp_hot's p50 by up to
// 40% between seeds (7.6 ms against 11.2 ms). With the pool drawn from
// it, the pool alone moved yago_sp's qps by 15% (seed 21 at 208 and
// 222/s, seed 24 at 258 and 282/s), and the quartile spread of qps over
// five seeds fell from 0.24 to 0.12 once the pool was fixed.
const datasetSeed = 1

// zipfShiftEvery is how many requests of a Zipf-skewed sequence keep one
// rank-to-query mapping before it is redrawn: popular queries repeat
// exactly within a stretch, and a run averages over many popular queries
// rather than resting on the cost of the few the seed happens to rank
// first (a 200-query Zipf pool at s=1.1 rests on about 12 queries).
const zipfShiftEvery = 64

func graphConfig(w workload) (gen.Config, error) {
	switch w.Dataset {
	case "yago":
		return gen.YagoConfig(w.Scale, datasetSeed), nil
	case "dbpedia":
		return gen.DBpediaConfig(w.Scale, datasetSeed), nil
	}
	return gen.Config{}, fmt.Errorf("unknown dataset %q", w.Dataset)
}

// makeInputs generates the graph, writes the files the workload's set-up
// reads, and draws the query pool, request sequence and arrival schedule.
// The graph and pool derive from datasetSeed, the sequence and schedule
// from seed alone. needNT forces the N-Triples file.
func makeInputs(w workload, seed int64, dir string, openSeconds float64, needNT bool) (*inputs, error) {
	gcfg, err := graphConfig(w)
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, graph: gen.Generate(gcfg)}
	g := in.graph

	if w.Serving == "ntriples" || needNT {
		in.ntPath = filepath.Join(dir, "data.nt")
		if err := writeNT(g, in.ntPath); err != nil {
			return nil, err
		}
	}
	if w.Serving != "ntriples" {
		cfg := ksp.DefaultConfig()
		cfg.AlphaRadius = w.Alpha
		ds, err := ksp.NewDatasetFromGraph(g, cfg)
		if err != nil {
			return nil, err
		}
		in.snapPath = filepath.Join(dir, "data.snap")
		t0 := time.Now()
		if err := ds.Save(in.snapPath); err != nil {
			return nil, err
		}
		in.saveS = time.Since(t0).Seconds()
	}

	// The pool: distinct O-generator queries.
	qg := gen.NewQueryGen(g, rdf.Outgoing, datasetSeed+1000)
	seen := make(map[string]bool, w.Pool)
	for len(in.pool) < w.Pool {
		loc, kws := qg.Original(w.M)
		q := query{X: loc.X, Y: loc.Y, Keywords: kws}
		if key := q.String(); !seen[key] {
			seen[key] = true
			in.pool = append(in.pool, q)
		}
	}

	// The request sequence: uniform or Zipf-skewed pool draws, with every
	// DescribeEvery-th request replaced by a uniform vertex /describe.
	// Zipf ranks map to pool queries through a permutation redrawn every
	// zipfShiftEvery requests.
	rng := rand.New(rand.NewSource(seed + 2000))
	var zipf *rand.Zipf
	var perm []int
	if w.ZipfS > 1 {
		zipf = rand.NewZipf(rng, w.ZipfS, 1, uint64(len(in.pool)-1))
	}
	in.seq = make([]int32, seqLen)
	for i := range in.seq {
		if zipf != nil && i%zipfShiftEvery == 0 {
			perm = rng.Perm(len(in.pool))
		}
		switch {
		case w.DescribeEvery > 0 && i%w.DescribeEvery == w.DescribeEvery-1:
			in.seq[i] = -int32(rng.Intn(g.NumVertices())) - 1
		case zipf != nil:
			in.seq[i] = int32(perm[zipf.Uint64()])
		default:
			in.seq[i] = int32(rng.Intn(len(in.pool)))
		}
	}

	// The open-loop schedule: exponential gaps at OpenQPS.
	arr := rand.New(rand.NewSource(seed + 3000))
	window := time.Duration(openSeconds * float64(time.Second))
	for at := time.Duration(0); ; {
		at += time.Duration(arr.ExpFloat64() / w.OpenQPS * float64(time.Second))
		if at >= window {
			break
		}
		in.arrivals = append(in.arrivals, at)
	}

	in.fingerprint, err = fingerprint(in)
	if err != nil {
		return nil, err
	}
	return in, nil
}

func writeNT(g *rdf.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := nt.WriteGraph(g, bw); err != nil {
		//ksplint:ignore droppederr -- error-path cleanup; the write error already wins
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		//ksplint:ignore droppederr -- error-path cleanup; the flush error already wins
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// fingerprint hashes the query pool, the request sequence and the bytes
// of every input file, so two runs can be shown to have used identical
// inputs.
func fingerprint(in *inputs) (string, error) {
	var draws bytes.Buffer
	for _, q := range in.pool {
		fmt.Fprintln(&draws, q.String())
	}
	for _, v := range in.seq {
		fmt.Fprintln(&draws, v)
	}
	h := sha256.New()
	if _, err := io.Copy(h, &draws); err != nil {
		return "", err
	}
	for _, p := range []string{in.ntPath, in.snapPath} {
		if p == "" {
			continue
		}
		if err := hashFile(h, p); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func hashFile(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	//ksplint:ignore droppederr -- file opened read-only; Close cannot lose data
	defer f.Close()
	if _, err := io.Copy(w, f); err != nil {
		return fmt.Errorf("hash %s: %w", path, err)
	}
	return nil
}
