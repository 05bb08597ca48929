// Bank: a contended account-transfer workload over distributed mutexes —
// the classic mutual-exclusion stress test, run with both ARMCI lock
// algorithms so their behaviour under identical load can be compared.
//
// Accounts are word cells spread across the ranks' memories; each lock
// protects one account. A transfer locks the two accounts in global index
// order (deadlock avoidance), moves money with plain load/store (safe only
// under mutual exclusion), fences, and unlocks. Conservation of the total
// balance proves no update was lost; the message trace shows the queuing
// lock moving less traffic than the server-relayed hybrid.
//
// Run with:
//
//	go run ./examples/bank
//	go run ./examples/bank -alg hybrid
//	go run ./examples/bank -procs 8 -accounts 16 -transfers 300
package main

import (
	"flag"
	"fmt"
	"log"

	"armci"
)

func main() {
	procs := flag.Int("procs", 4, "number of emulated processes")
	accounts := flag.Int("accounts", 8, "number of accounts (= locks)")
	transfers := flag.Int("transfers", 200, "transfers per process")
	algFlag := flag.String("alg", "queue", "lock algorithm: queue, queue-nocas, hybrid")
	flag.Parse()

	alg, err := armci.ParseLockAlg(*algFlag)
	if err != nil {
		log.Fatal(err)
	}

	const initialBalance = 1000
	var finalTotal int64
	var perAccount []int64

	rep, err := armci.Run(armci.Options{
		Procs:      *procs,
		Fabric:     armci.FabricChan,
		NumMutexes: *accounts, // lock i is homed at rank i % procs, like account i
	}, func(p *armci.Proc) {
		me, n := p.Rank(), p.Size()
		na := *accounts

		// Account i lives in the memory of rank i%n — same placement as
		// its lock, so a lock-home process updates "its" accounts without
		// any server involvement (the paper's local-lock fast path).
		// The global account table: account i = word i/n of rank i%n's
		// collective allocation. Every rank derives it identically.
		table := make([]armci.Ptr, na)
		ptrs := p.MallocWords((na + n - 1) / n)
		for i := 0; i < na; i++ {
			table[i] = ptrs[i%n].Add(int64(i / n))
		}

		// Rank 0 funds every account.
		if me == 0 {
			for i := 0; i < na; i++ {
				p.Store(table[i], initialBalance)
			}
		}
		p.Barrier()

		locks := make([]armci.Mutex, na)
		for i := range locks {
			locks[i] = p.Mutex(i, alg)
		}

		fenceAll := func(a, b int) {
			if node := p.NodeOf(a % n); node != p.MyNode() {
				p.Fence(node)
			}
			if node := p.NodeOf(b % n); node != p.MyNode() {
				p.Fence(node)
			}
		}

		// Deterministic pseudo-random transfer stream per rank.
		x := uint64(me*2654435761 + 1)
		next := func(mod int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(mod))
		}
		for t := 0; t < *transfers; t++ {
			from, to := next(na), next(na)
			if from == to {
				to = (to + 1) % na
			}
			amount := int64(next(50) + 1)
			lo, hi := from, to
			if lo > hi {
				lo, hi = hi, lo
			}
			locks[lo].Lock()
			locks[hi].Lock()
			fb := p.Load(table[from])
			if fb >= amount {
				p.Store(table[from], fb-amount)
				p.Store(table[to], p.Load(table[to])+amount)
				fenceAll(from, to)
			}
			locks[hi].Unlock()
			locks[lo].Unlock()
		}
		p.Barrier()

		if me == 0 {
			perAccount = make([]int64, na)
			finalTotal = 0
			for i := 0; i < na; i++ {
				perAccount[i] = p.Load(table[i])
				finalTotal += perAccount[i]
			}
		}
		p.Barrier()
	})
	if err != nil {
		log.Fatal(err)
	}

	want := int64(*accounts * initialBalance)
	fmt.Printf("bank: %d procs x %d transfers over %d accounts, %s locks\n",
		*procs, *transfers, *accounts, *algFlag)
	for i, b := range perAccount {
		fmt.Printf("  account %2d (rank %d): %5d\n", i, i%*procs, b)
	}
	fmt.Printf("  total balance: %d (want %d)\n", finalTotal, want)
	fmt.Printf("  traffic: %s\n", rep.Stats.Summary())
	if finalTotal != want {
		log.Fatal("bank: money was created or destroyed — mutual exclusion failed")
	}
}
