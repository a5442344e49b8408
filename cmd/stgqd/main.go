// Command stgqd serves the activity planner over HTTP — the "value-added
// service" deployment of the paper's conclusion. Start empty, preloaded
// with a dataset file, durable, or as a read replica of another stgqd:
//
//	stgqd -addr :8080
//	stgqd -addr :8080 -data real194.json
//	stgqd -addr :8080 -data-dir /var/lib/stgqd
//	stgqd -addr :8080 -data-dir /var/lib/stgqd -data real194.json
//	stgqd -addr :8081 -data-dir /var/lib/stgqd-replica -follow http://leader:8080
//
// Then, for example:
//
//	curl -X POST localhost:8080/query/activity \
//	     -d '{"initiator":12,"p":5,"s":2,"k":2,"m":4}'
//
// With -data-dir every mutation is group-committed to a write-ahead
// journal before the request is acknowledged, and the population is folded
// into a snapshot every -snapshot-every mutations (plus once on clean
// shutdown). Restarting with the same -data-dir recovers the full state —
// including after a kill -9, which at worst truncates a torn final record
// that was never acknowledged. Combining -data with -data-dir bulk-imports
// the dataset as the durable store's initial snapshot (a file the next
// boot could not replay is refused); a non-empty store is never
// overwritten (the import is skipped with a warning, so restarts
// with the same command line come back up). SIGINT/SIGTERM drain in-flight requests,
// flush the journal and write a final snapshot before exiting.
//
// With -follow the server is a read-only follower: it replicates the
// leader's journal over GET /replication/stream into its own -data-dir,
// serves queries from the replayed state, and rejects mutations with 403
// plus a leader redirect hint (-advertise overrides the advertised URL).
// A follower restarted with the same -data-dir resumes from its own disk.
// When the leader dies, POST /promote (issued by an operator or by stgqgw
// -auto-failover) turns the follower into the new leader in place: it
// re-opens its store writable at epoch+1, which fences the dead leader's
// replication stream should it come back.
//
// Durable servers speak the cluster's read-your-writes protocol: every
// acknowledged mutation response carries the journal's durable sequence
// number in X-STGQ-Write-Seq, and a query carrying an X-STGQ-Min-Seq
// floor is held (up to -barrier-wait) until the local state has reached
// it — or answered 412 so the gateway can fall back to a fresher
// backend. See docs/consistency.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	stgq "repro"
	"repro/internal/dataset"
	"repro/internal/journal"
	"repro/internal/replica"
	"repro/internal/service"
)

// servePprof serves net/http/pprof on its own listener, kept off the
// service mux so profiling endpoints are never exposed on the public
// address. Errors are fatal: an operator who asked for -pprof and
// cannot get it should find out immediately, not at incident time.
func servePprof(prog, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Printf("%s: pprof listening on %s\n", prog, addr)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	log.Fatalf("%s: pprof: %v", prog, srv.ListenAndServe())
}

// loadDataset reads a dataset JSON file.
func loadDataset(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.Load(f)
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		data        = flag.String("data", "", "dataset JSON to preload (with -data-dir: bulk-import into an empty store)")
		horizon     = flag.Int("horizon", 7*stgq.SlotsPerDay, "schedule horizon in slots (empty start only)")
		dataDir     = flag.String("data-dir", "", "directory for the durable journal + snapshots (empty: in-memory)")
		snapEach    = flag.Int("snapshot-every", journal.DefaultSnapshotEvery, "mutations between automatic snapshots")
		drainFor    = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
		follow      = flag.String("follow", "", "run as a read-only follower replicating this leader URL (requires -data-dir)")
		advertise   = flag.String("advertise", "", "write-endpoint URL advertised to clients (follower default: the -follow URL)")
		barrierWait = flag.Duration("barrier-wait", service.DefaultBarrierWait, "max wait for an X-STGQ-Min-Seq read barrier before answering 412")
		slowReq     = flag.Duration("slow-request", service.DefaultSlowRequest, "log requests slower than this with their X-STGQ-Request-ID (negative: disable)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this separate address (empty: disabled)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go servePprof("stgqd", *pprofAddr)
	}

	var (
		srv          *service.Server
		store        *journal.Store
		follower     *replica.Follower
		followerDone chan struct{}
	)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	switch {
	case *follow != "":
		if *dataDir == "" {
			log.Fatal("stgqd: -follow requires -data-dir (the follower keeps its own durable copy)")
		}
		if *data != "" {
			log.Fatal("stgqd: -data cannot be combined with -follow (the follower's state comes from the leader)")
		}
		var err error
		// On POST /promote the follower re-opens its store with these
		// same options: the promoted leader group-commits the same way
		// the serial applier does.
		follower, err = replica.NewFollower(replica.Config{
			LeaderURL: *follow,
			Dir:       *dataDir,
			Store: journal.Options{
				HorizonSlots:  *horizon,
				SnapshotEvery: *snapEach,
			},
		})
		if err != nil {
			log.Fatalf("stgqd: %v", err)
		}
		hint := *advertise
		if hint == "" {
			hint = *follow
		}
		srv = service.NewFollower(follower, hint)
		followerDone = make(chan struct{})
		go func() {
			follower.Run(ctx)
			close(followerDone)
		}()
		fmt.Printf("stgqd: following %s (applied seq %d from %s)\n",
			*follow, follower.Status().AppliedSeq, *dataDir)
	case *dataDir != "":
		opts := journal.Options{
			HorizonSlots:  *horizon,
			SnapshotEvery: *snapEach,
		}
		if *data != "" {
			d, err := loadDataset(*data)
			if err != nil {
				log.Fatalf("stgqd: %v", err)
			}
			switch store, err = journal.ImportDataset(*dataDir, d, opts); {
			case errors.Is(err, journal.ErrNotEmpty):
				// The import is refused rather than overwriting, but a
				// restart with the same command line must come back up:
				// serve the state the store already holds.
				log.Printf("stgqd: skipping -data import: %v (serving existing state)", err)
			case err != nil:
				log.Fatalf("stgqd: import: %v", err)
			default:
				fmt.Printf("stgqd: imported %d people, %d friendships into %s\n",
					d.Graph.NumVertices(), d.Graph.NumEdges(), *dataDir)
			}
		}
		if store == nil {
			var err error
			if store, err = journal.Open(*dataDir, opts); err != nil {
				log.Fatalf("stgqd: %v", err)
			}
		}
		rec := store.Recovery()
		fmt.Printf("stgqd: recovered %d people, %d friendships from %s (snapshot seq %d + %d replayed records, %d torn bytes truncated)\n",
			rec.People, rec.Friendships, *dataDir, rec.SnapshotSeq, rec.ReplayedRecords, rec.TruncatedBytes)
		srv = service.NewWithStore(store)
	case *data != "":
		d, err := loadDataset(*data)
		if err != nil {
			log.Fatalf("stgqd: %v", err)
		}
		srv = service.NewWithPlanner(stgq.FromDataset(d))
		fmt.Printf("stgqd: loaded %d people, %d friendships, %d slots\n",
			d.Graph.NumVertices(), d.Graph.NumEdges(), d.Cal.Horizon())
	default:
		srv = service.New(*horizon)
	}
	srv.BarrierWait = *barrierWait
	srv.SlowRequest = *slowReq

	// Replication streams long-poll for up to 30 s each; during
	// shutdown they must end immediately or the graceful drain would
	// always stall for the full -drain-timeout while followers are
	// connected. Cancelling the server's base context cancels every
	// request context (ending the streamers' WaitDurable); the query and
	// mutation handlers never read their contexts, so in-flight requests
	// still drain normally.
	reqCtx, stopStreams := context.WithCancel(context.Background())
	defer stopStreams()
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return reqCtx },
	}

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("stgqd: listening on %s\n", *addr)
		errCh <- hs.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		srv.CloseState() //nolint:errcheck // about to exit
		log.Fatalf("stgqd: %v", err)
	case <-ctx.Done():
	}
	stop()

	// Drain in-flight queries, then flush the journal and write the final
	// snapshot so the next boot replays nothing.
	fmt.Println("stgqd: shutting down")
	stopStreams()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("stgqd: drain: %v", err)
	}
	if followerDone != nil {
		// The replication loop saw the same ctx cancellation; wait for
		// it to unwind before closing the durable state.
		<-followerDone
	}
	// The server owns whatever durable state is current — the store or
	// follower it started with, or the store a runtime POST /promote
	// re-opened. A close error (e.g. the final snapshot skipped because a
	// straggler outlived the drain) is not a crash: everything
	// acknowledged is already fsynced in the journal and the next boot
	// replays it.
	if err := srv.CloseState(); err != nil {
		log.Printf("stgqd: close: %v (journal remains authoritative)", err)
	}
	fmt.Println("stgqd: bye")
}
