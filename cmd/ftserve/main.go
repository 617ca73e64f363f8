// Command ftserve runs the long-lived FFT service: a server accepting
// transform requests over the framed wire protocol, multiplexing concurrent
// clients onto a bounded plan cache, with every payload travelling under §5
// block checksums and every response repaired or rejected — never silently
// wrong.
//
// Usage:
//
//	ftserve -listen /tmp/ftfft-serve.sock
//	ftserve -listen :9040 -plan-cache 128 -max-in-flight 16
//	ftserve -listen /tmp/ftfft-serve.sock -inject 1m+1c
//
// The address family follows the hub convention: a filesystem-looking
// address is a Unix-domain socket, host:port is TCP.
//
// SIGTERM or SIGINT drains gracefully: the listener closes, requests not yet
// admitted are refused with unavailable error frames, in-flight transforms
// finish and their responses are written, then every client gets a goodbye.
// -drain-timeout bounds the wait; a second signal forces an immediate stop.
//
// -inject installs a server-side fault schedule (m = memory, c =
// computational faults) into every plan the server builds — a demo of the
// service's ABFT story: clients requesting a protecting scheme see the
// faults detected and repaired in their response reports.
//
// -wisdom imports a tuning-wisdom file (produced by ftfft -tune -wisdom)
// before serving: plans built for cache misses apply the recorded Bluestein
// convolution lengths, but the server itself never benchmarks inside a
// request. Servers sharing one wisdom file build identical plans and return
// bit-identical spectra. Files in the older version-1 format are rejected at
// startup and must be re-tuned.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ftfft"
)

func main() {
	listenAddr := flag.String("listen", "", "address to serve on (unix path or host:port); required")
	planCache := flag.Int("plan-cache", 0, "bound on cached plans (0 = default 64)")
	maxInFlight := flag.Int("max-in-flight", 0, "bound on concurrently executing requests (0 = 2×workers)")
	maxElems := flag.Int("max-elems", 0, "per-request payload bound in elements (0 = default 1<<20)")
	workers := flag.Int("workers", 0, "server-owned executor width (0 = shared process pool)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain after SIGTERM/SIGINT")
	inject := flag.String("inject", "", "server-side fault mix for every built plan, e.g. 1m+1c")
	wisdomPath := flag.String("wisdom", "", "tuning-wisdom file to import before serving: Bluestein convolution lengths from ftfft -tune -wisdom (version 2; re-tune older files)")
	quiet := flag.Bool("quiet", false, "suppress startup and shutdown chatter")
	flag.Parse()

	if *listenAddr == "" {
		fatalf("-listen is required")
	}
	if *wisdomPath != "" {
		data, err := os.ReadFile(*wisdomPath)
		if err != nil {
			fatalf("reading -wisdom %s: %v", *wisdomPath, err)
		}
		if err := ftfft.ImportWisdom(data); err != nil {
			fatalf("importing -wisdom %s: %v", *wisdomPath, err)
		}
		if !*quiet {
			fmt.Printf("ftserve: imported wisdom from %s\n", *wisdomPath)
		}
	}
	network := networkFor(*listenAddr)
	if network == "unix" {
		os.Remove(*listenAddr)
	}

	cfg := ftfft.ServerConfig{
		PlanCache:   *planCache,
		MaxInFlight: *maxInFlight,
		MaxElems:    *maxElems,
		Workers:     *workers,
	}
	if *inject != "" {
		faults, err := parseMix(*inject)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Injector = ftfft.NewFaultSchedule(1, faults...)
	}

	srv, err := ftfft.ListenServe(network, *listenAddr, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if !*quiet {
		fmt.Printf("ftserve: listening on %s %s\n", network, srv.Addr())
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	if !*quiet {
		fmt.Printf("ftserve: %v: draining (timeout %v)\n", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sigc // a second signal cuts the drain short
		cancel()
	}()
	err = srv.Shutdown(ctx)
	builds, evictions, size := srv.CacheStats()
	if !*quiet {
		fmt.Printf("ftserve: plan cache: %d builds, %d evictions, %d resident\n", builds, evictions, size)
	}
	if err != nil {
		fatalf("drain incomplete: %v", err)
	}
	if !*quiet {
		fmt.Println("ftserve: drained cleanly")
	}
}

// networkFor infers the socket family from an address: anything that looks
// like a filesystem path is a Unix-domain socket, host:port is TCP.
func networkFor(addr string) string {
	if strings.ContainsAny(addr, "/\\") || !strings.Contains(addr, ":") {
		return "unix"
	}
	return "tcp"
}

// parseMix turns "2m+1c" into a fault list spread over distinct sites.
func parseMix(mix string) ([]ftfft.Fault, error) {
	var out []ftfft.Fault
	memIdx, compIdx := 0, 0
	for _, part := range strings.Split(mix, "+") {
		part = strings.TrimSpace(part)
		if len(part) < 2 {
			return nil, fmt.Errorf("bad fault mix component %q", part)
		}
		count, err := strconv.Atoi(part[:len(part)-1])
		if err != nil || count < 1 {
			return nil, fmt.Errorf("bad fault count in %q", part)
		}
		for i := 0; i < count; i++ {
			switch part[len(part)-1] {
			case 'm':
				site := ftfft.SiteInputMemory
				if memIdx%2 == 1 {
					site = ftfft.SiteIntermediateMemory
				}
				out = append(out, ftfft.Fault{
					Site: site, Rank: ftfft.AnyRank, Occurrence: 1 + memIdx, Index: -1,
					Mode: ftfft.SetConstant, Value: 42,
				})
				memIdx++
			case 'c':
				site := ftfft.SiteSubFFT1
				if compIdx%2 == 1 {
					site = ftfft.SiteSubFFT2
				}
				out = append(out, ftfft.Fault{
					Site: site, Rank: ftfft.AnyRank, Occurrence: 2 + 3*compIdx, Index: -1,
					Mode: ftfft.AddConstant, Value: 5,
				})
				compIdx++
			default:
				return nil, fmt.Errorf("unknown fault kind %q (want m or c)", part[len(part)-1:])
			}
		}
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ftserve: "+format+"\n", args...)
	os.Exit(1)
}
