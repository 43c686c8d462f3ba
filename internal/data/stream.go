package data

import (
	"bufio"
	"fmt"
	"io"

	"ptffedrec/internal/rng"
)

// This file is the streaming face of the synthetic generator: each user's
// profile delivered one at a time with O(users) scalar state instead of the
// materialised interaction set. It exists for the huge profiles (Huge1M)
// where holding every profile — let alone a Dataset plus a Split copy of it —
// would dominate the very memory budget the scalability experiment measures.
// The all-at-once forms are built on it: Generate collects StreamUsers,
// StreamSplit and Dataset.Split split each user through one splitUser, and
// StreamCSV and WriteCSV write each user through one writeUserCSV. Tests pin
// the pairs equal: StreamUsers item-for-item against Generate, StreamSplit
// against Generate+Split, StreamCSV byte-for-byte against WriteCSV.

// StreamUsers generates the profile's users in ascending order, invoking fn
// once per user with that user's sorted, deduplicated item list. The slice
// is reused between calls — fn must copy anything it keeps. Returning an
// error from fn stops the stream.
func StreamUsers(p Profile, seed uint64, fn func(u int, items []int) error) error {
	g := newStreamGen(p, seed)
	var buf []int
	for u := 0; u < p.NumUsers; u++ {
		buf = g.userItems(buf, u)
		if err := fn(u, buf); err != nil {
			return err
		}
	}
	return nil
}

// StreamSplit generates and splits the profile in one pass, producing the
// same Split as Generate(p, seed).Split(rng.New(seed).Derive("split:"+p.Name),
// testFrac) — the experiment harness's split recipe — without ever holding
// the full Dataset. Peak extra memory is the Split itself (which the caller
// needs anyway) plus one user's scratch.
func StreamSplit(p Profile, seed uint64, testFrac float64) *Split {
	sp := newSplit(p.Name, p.NumUsers, p.NumItems)
	s := rng.New(seed).Derive("split:" + p.Name)
	err := StreamUsers(p, seed, func(u int, items []int) error {
		splitUser(sp, s, u, items, testFrac)
		return nil
	})
	if err != nil {
		// The callback never fails; an error here is a bug.
		panic(err)
	}
	return sp
}

// StreamCSV streams the profile to w as "user,item" lines — byte-identical
// to WriteCSV(Generate(p, seed), w) — and returns the dataset statistics
// gathered along the way. Working memory stays O(one user's profile).
func StreamCSV(w io.Writer, p Profile, seed uint64) (Stats, error) {
	bw := bufio.NewWriter(w)
	var interactions int
	err := StreamUsers(p, seed, func(u int, items []int) error {
		interactions += len(items)
		return writeUserCSV(bw, u, items)
	})
	if err != nil {
		return Stats{}, err
	}
	if err := bw.Flush(); err != nil {
		return Stats{}, fmt.Errorf("data: write csv: %w", err)
	}
	return newStats(p.Name, p.NumUsers, p.NumItems, interactions), nil
}

// StreamStats computes the profile's Table II statistics by streaming the
// generation, never holding more than one user's profile.
func StreamStats(p Profile, seed uint64) Stats {
	var interactions int
	err := StreamUsers(p, seed, func(u int, items []int) error {
		interactions += len(items)
		return nil
	})
	if err != nil {
		panic(err) // callback never fails
	}
	return newStats(p.Name, p.NumUsers, p.NumItems, interactions)
}
