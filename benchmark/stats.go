package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values; 0 when empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// queryLatency returns the geometric mean over the queries of each
// query's q-quantile latency. Every query weighs the same whatever its
// cost or how often it ran, so the figure does not jump between the
// latency clusters of a mixed query set.
func queryLatency(byQuery map[int][]float64, q float64) float64 {
	var per []float64
	for _, lat := range byQuery {
		if len(lat) > 0 {
			per = append(per, quantile(lat, q))
		}
	}
	return geomean(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler records the live Go heap while a timed window runs: the
// heap that each garbage collection found reachable, which depends only
// on what the program holds, unlike the momentary heap size, whose peaks
// GC pacing sets. runtime/metrics reads do not stop the world, so
// polling every millisecond barely perturbs the measured work.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []heapSample // one per change of the live heap
}

type heapSample struct {
	at   time.Time
	live uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		record := func() {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			if n := len(h.samples); n == 0 || h.samples[n-1].live != v {
				h.samples = append(h.samples, heapSample{time.Now(), v})
			}
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			record()
			select {
			case <-h.stop:
				record()
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) Stop() {
	close(h.stop)
	<-h.done
}

// peakMB returns the largest live heap, in MB, in effect at any time in
// [from, to): the value current at from and every later one before to.
func (h *heapSampler) peakMB(from, to time.Time) float64 {
	var peak uint64
	for i, s := range h.samples {
		if !s.at.Before(to) {
			break
		}
		if s.at.Before(from) && i+1 < len(h.samples) && h.samples[i+1].at.Before(from) {
			continue
		}
		peak = max(peak, s.live)
	}
	return float64(peak) / (1 << 20)
}

// medianPeakMB returns the median over the intervals between
// consecutive bounds of each interval's live-heap peak, so one unusual
// collection does not set the figure.
func (h *heapSampler) medianPeakMB(bounds []time.Time) float64 {
	var peaks []float64
	for i := 0; i+1 < len(bounds); i++ {
		peaks = append(peaks, h.peakMB(bounds[i], bounds[i+1]))
	}
	return median(peaks)
}

// heapAllocBytes returns the cumulative bytes allocated on the Go heap.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// provenance records what a result was measured on and with.
type provenance struct {
	Workload         string `json:"workload"`
	Seed             int64  `json:"seed"`
	Seconds          int    `json:"seconds"`
	Trace            bool   `json:"trace"`
	CacheState       string `json:"cache_state"`
	Generator        string `json:"generator"`
	Scale            string `json:"scale"`
	RowGroupRows     int    `json:"row_group_rows"`
	TargetPartitions int    `json:"target_partitions"`
	Clients          int    `json:"clients"`
	CPU              string `json:"cpu"`
	NumCPU           int    `json:"nproc"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	GoVersion        string `json:"go_version"`
	GitSHA           string `json:"git_sha"`
	SourceDigest     string `json:"source_digest"`
	Timings          string `json:"timings"`
}

func collectProvenance(o options) provenance {
	p := provenance{
		Workload:         o.workload,
		Seed:             o.seed,
		Seconds:          o.seconds,
		Trace:            o.trace,
		TargetPartitions: targetPartitions,
		CPU:              cpuModel(),
		NumCPU:           runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(),
		GitSHA:           gitSHA(),
		SourceDigest:     sourceDigest(),
		Timings:          "medians and quantiles of per-operation samples within one run; setup_s is the median of repeated setups",
	}
	switch o.workload {
	case "tpch-warm", "tpch-cold":
		p.CacheState = "warm: 256 MiB page cache holds the working set"
		if o.workload == "tpch-cold" {
			p.CacheState = "cold: 8 MiB page cache thrashes"
		}
		p.Generator = "internal/workload/tpch dbgen, GPQ files, seeded by --seed"
		p.Scale = "sf 0.1"
		p.RowGroupRows = tpchRowGroupRows
		p.Clients = 1
	case "serve-mixed":
		p.CacheState = "in-memory tables; plan cache on, result cache off"
		p.Generator = "internal/serverload NewWorkload (TPC-H, ClickBench, fuzzsql), seeded by --seed"
		p.Scale = "TPC-H sf 0.01, ClickBench 2000 rows, 20 fuzzsql queries"
		p.Clients = serveClients
	}
	return p
}

// cpuModel reads the CPU model name on Linux; "unknown" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA returns the commit of the working directory when it is the top
// of a git checkout, "unknown" otherwise (an exported source tree).
func gitSHA() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", wd, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the path and content of every Go source and go.mod
// file under the working directory, skipping dot directories (build
// outputs included), so a result names the code it measured even when
// the tree is not a git checkout.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
