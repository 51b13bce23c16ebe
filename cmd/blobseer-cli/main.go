// Command blobseer-cli is a small client for a TCP BlobSeer cluster:
// create blobs, read and write byte ranges, append files, inspect
// versions and branch.
//
// Cluster addresses are given once via flags (or the BLOBSEER_* environment
// variables):
//
//	blobseer-cli -vm host:4400 -pm host:4401 -meta host:4402,host2:4402 create -pagesize 65536
//	blobseer-cli ... append 1 < data.bin
//	blobseer-cli ... read 1 -version 3 -offset 0 -length 1024 > out.bin
//	blobseer-cli ... stat 1
//	blobseer-cli ... branch 1 -version 3
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"blobseer"
	"blobseer/internal/wire"
)

// The flags name the cluster, and -read-stats prints the client's
// series. There is no read tuning: one command is one operation, with no
// re-read for a page cache to serve and too few calls for an adaptive
// hedge delay.
var (
	vm        = flag.String("vm", os.Getenv("BLOBSEER_VM"), "version manager address")
	pm        = flag.String("pm", os.Getenv("BLOBSEER_PM"), "provider manager address")
	meta      = flag.String("meta", os.Getenv("BLOBSEER_META"), "comma-separated metadata provider addresses")
	readStats = flag.Bool("read-stats", false, "print the client's series (read path, metadata cache, reclaims) to stderr on exit, in the /metrics text format")
)

func main() {
	log.SetFlags(0)
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	if *vm == "" || *pm == "" || *meta == "" {
		log.Fatal("need -vm, -pm and -meta (or BLOBSEER_VM/PM/META)")
	}
	c, err := blobseer.Dial(blobseer.ClientOptions{
		VersionManager:    *vm,
		ProviderManager:   *pm,
		MetadataProviders: strings.Split(*meta, ","),
	})
	if err != nil {
		log.Fatalf("connect: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "create":
		fs := flag.NewFlagSet("create", flag.ExitOnError)
		ps := fs.Uint("pagesize", 64<<10, "page size in bytes (power of two)")
		fs.Parse(args)
		blob, err := c.Create(ctx, blobseer.Options{PageSize: uint32(*ps)})
		if err != nil {
			log.Fatalf("create: %v", err)
		}
		fmt.Println(uint64(blob.ID()))

	case "append":
		blob := openBlob(ctx, c, args)
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			log.Fatalf("read stdin: %v", err)
		}
		v, err := blob.Append(ctx, data)
		if err != nil {
			log.Fatalf("append: %v", err)
		}
		if err := blob.Sync(ctx, v); err != nil {
			log.Fatalf("sync: %v", err)
		}
		fmt.Printf("version %d\n", v)

	case "write":
		fs := flag.NewFlagSet("write", flag.ExitOnError)
		off := fs.Uint64("offset", 0, "byte offset")
		fs.Parse(argsTail(args))
		blob := openBlob(ctx, c, args)
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			log.Fatalf("read stdin: %v", err)
		}
		v, err := blob.Write(ctx, data, *off)
		if err != nil {
			log.Fatalf("write: %v", err)
		}
		if err := blob.Sync(ctx, v); err != nil {
			log.Fatalf("sync: %v", err)
		}
		fmt.Printf("version %d\n", v)

	case "read":
		fs := flag.NewFlagSet("read", flag.ExitOnError)
		ver := fs.Uint64("version", 0, "snapshot version (0 = most recent)")
		off := fs.Uint64("offset", 0, "byte offset")
		length := fs.Uint64("length", 0, "bytes to read (0 = to end)")
		fs.Parse(argsTail(args))
		blob := openBlob(ctx, c, args)
		v := blobseer.Version(*ver)
		size := uint64(0)
		if v == 0 {
			var err error
			v, size, err = blob.Recent(ctx)
			if err != nil {
				log.Fatalf("recent: %v", err)
			}
		} else {
			var err error
			size, err = blob.Size(ctx, v)
			if err != nil {
				log.Fatalf("size: %v", err)
			}
		}
		n, err := readSpan(v, size, *off, *length)
		if err != nil {
			log.Fatalf("read: %v", err)
		}
		buf := make([]byte, n)
		if err := blob.Read(ctx, v, buf, *off); err != nil {
			log.Fatalf("read: %v", err)
		}
		os.Stdout.Write(buf)

	case "stat":
		blob := openBlob(ctx, c, args)
		v, size, err := blob.Recent(ctx)
		if err != nil {
			log.Fatalf("recent: %v", err)
		}
		fmt.Printf("blob %d: recent version %d, %d bytes\n", uint64(blob.ID()), v, size)
		for ver := blobseer.Version(1); ver <= v; ver++ {
			if sz, err := blob.Size(ctx, ver); err == nil {
				fmt.Printf("  version %-6d %d bytes\n", ver, sz)
			}
		}

	case "branch":
		fs := flag.NewFlagSet("branch", flag.ExitOnError)
		ver := fs.Uint64("version", 0, "published version to branch at")
		fs.Parse(argsTail(args))
		blob := openBlob(ctx, c, args)
		nb, err := blob.Branch(ctx, blobseer.Version(*ver))
		if err != nil {
			log.Fatalf("branch: %v", err)
		}
		fmt.Println(uint64(nb.ID()))

	case "expire":
		fs := flag.NewFlagSet("expire", flag.ExitOnError)
		upTo := fs.Uint64("up-to", 0, "expire every version <= this (required)")
		fs.Parse(argsTail(args))
		blob := openBlob(ctx, c, args)
		floor, err := blob.Expire(ctx, blobseer.Version(*upTo))
		if err != nil {
			log.Fatalf("expire: %v", err)
		}
		fmt.Printf("floor %d\n", floor)

	case "gc":
		blob := openBlob(ctx, c, args)
		stats, err := blob.GC(ctx)
		if err != nil {
			log.Fatalf("gc: %v", err)
		}
		fmt.Printf("expired versions %d, deleted pages %d (%d rpc)\n",
			stats.ExpiredVersions, stats.DeletedPages, stats.DeleteRPCs)
		fmt.Printf("metadata nodes walked %d, retained %d, deleted %d (%d batches)\n",
			stats.WalkedNodes, stats.RetainedNodes, stats.DeletedNodes, stats.NodeDeleteBatches)

	default:
		usage()
	}

	if *readStats {
		c.WriteMetrics(os.Stderr)
	}
}

func openBlob(ctx context.Context, c *blobseer.Client, args []string) *blobseer.Blob {
	if len(args) < 1 {
		usage()
	}
	id, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		log.Fatalf("bad blob id %q", args[0])
	}
	blob, err := c.Open(ctx, blobseer.BlobID(id))
	if err != nil {
		log.Fatalf("open blob %d: %v", id, err)
	}
	return blob
}

// readSpan returns how many bytes `read -offset off -length length`
// takes from snapshot v of the given size (length 0 = to the end), or
// the out-of-bounds error Blob.Read gives for a range outside it —
// before a buffer of that length is allocated, and without size-off
// wrapping for an offset past the end.
func readSpan(v blobseer.Version, size, off, length uint64) (uint64, error) {
	if off > size || length > size-off {
		return 0, wire.NewError(wire.CodeOutOfBounds,
			"read [%d,+%d) beyond snapshot %d of size %d", off, length, v, size)
	}
	if length == 0 {
		return size - off, nil
	}
	return length, nil
}

func argsTail(args []string) []string {
	if len(args) <= 1 {
		return nil
	}
	return args[1:]
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: blobseer-cli -vm A -pm B -meta C,D <command>
commands:
  create -pagesize N          create a blob, print its id
  append <blob>               append stdin, print the new version
  write <blob> -offset N      overwrite at offset from stdin
  read <blob> [-version V] [-offset N] [-length L]
  stat <blob>                 list versions and sizes
  branch <blob> -version V    branch at a published version
  expire <blob> -up-to V      expire snapshots <= V (retention floor)
  gc <blob>                   reclaim pages of expired snapshots
before the command:
  -read-stats                 print the client's series to stderr (/metrics text format)`)
	os.Exit(2)
}
