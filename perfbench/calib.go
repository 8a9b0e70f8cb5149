package main

import (
	"math"
	"time"
)

// The machine this benchmark runs on changes speed from run to run: on
// the 2-vCPU VM it was built on, a fixed single-thread loop took from 1.6
// to 2.1 s in consecutive runs, and two sets of ten runs of one workload
// differed by up to 19% in median throughput. Each untraced run therefore
// times a fixed calibration loop four times (before set-up, before and
// after the timed window, after the reads) and scales its timing
// metrics to the reference speed. An open loop's ingest rate is set by
// its schedule, not by the machine, and is not scaled. The loop calls no program code, so no
// change to the program can move it. Raw values are printed beside the
// scaled ones.

// refCalibNs is the calibration loop's median time on the reference
// machine (2-vCPU x86-64 VM, go1.24). It only sets the scale: it cancels
// out of any comparison between two commits.
const refCalibNs = 240e6

var calibSink float64

// calibNs times a fixed loop of dependent float arithmetic over a
// 512 KiB buffer, in nanoseconds.
func calibNs() float64 {
	buf := make([]float64, 1<<16)
	for i := range buf {
		buf[i] = float64(i)
	}
	t0 := time.Now()
	s := 0.0
	for r := 0; r < 300; r++ {
		for i := range buf {
			s += math.Sqrt(buf[i]+s*1e-9) * 1.0000001
			buf[i] = s
		}
	}
	calibSink = s
	return float64(time.Since(t0).Nanoseconds())
}

// speed collects a run's calibration samples. A nil *speed samples
// nothing and scales by 1.
type speed struct{ ns []float64 }

func (s *speed) sample() {
	if s != nil {
		s.ns = append(s.ns, calibNs())
	}
}

// slowdown is how much slower than the reference this run's machine
// was: the median calibration time over the reference. Rates are
// multiplied by it, times divided by it.
func (s *speed) slowdown() float64 {
	if s == nil || len(s.ns) == 0 {
		return 1
	}
	return median(s.ns) / refCalibNs
}
