// Package kv implements the single-shard key-value store underlying the
// Global Control Store. The paper uses one Redis instance per GCS shard with
// entirely single-key operations; this package provides the equivalent in
// pure Go: a map with per-store locking, prefix scans for debugging tools,
// and memory accounting plus flush support for the lineage-flushing
// experiment (Figure 10b).
//
// A store adopts the values it is handed: every replica of a chain holds the
// same immutable bytes, so each committed value exists once however many
// replicas there are. A caller never writes to a value after handing it over,
// and the store never writes to one either: a newer Put replaces it.
package kv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Entry is a key-value pair, used by snapshots and flushing.
type Entry struct {
	Key   string
	Value []byte
}

// Store is an in-memory key-value store safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	data  map[string][]byte //guard:by mu.R
	bytes int64             //guard:by mu.R — approximate resident size of keys + values
	// version increments on every mutation; chain replication uses it to
	// order state transfers against concurrent writes.
	version uint64 //guard:by mu.R
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: make(map[string][]byte)}
}

// Put stores value under key, replacing any previous value. It is a
// one-entry PutBatch: the store adopts value.
func (s *Store) Put(key string, value []byte) {
	s.PutBatch([]string{key}, [][]byte{value})
}

// PutBatch stores values[i] under keys[i] in slice order (a later duplicate
// key wins) under one lock, so readers see the whole batch or none of it.
// The store adopts the value slices: it keeps them, not copies, and the
// caller must never write to them again.
func (s *Store) PutBatch(keys []string, values [][]byte) {
	s.WriteBatch(keys, values, nil)
}

// WriteBatch is PutBatch with deletes: where deleted[i] is true, keys[i] is
// removed (a tombstone; values[i] is ignored) instead of stored. A nil
// deleted deletes nothing. Puts and deletes apply in slice order under one
// lock, so a later entry for a key wins and readers see the whole batch or
// none of it.
func (s *Store) WriteBatch(keys []string, values [][]byte, deleted []bool) {
	s.mu.Lock()
	for i, key := range keys {
		old, ok := s.data[key]
		if ok {
			s.bytes -= int64(len(old))
		}
		if deleted != nil && deleted[i] {
			if ok {
				s.bytes -= int64(len(key))
				delete(s.data, key)
			}
			continue
		}
		if !ok {
			s.bytes += int64(len(key))
		}
		s.data[key] = values[i]
		s.bytes += int64(len(values[i]))
	}
	s.version++
	s.mu.Unlock()
}

// Get returns the value stored under key: the committed value, shared by
// every replica, never modified. The caller must not modify it either, so
// handing it out costs no copy on what is the GCS's per-read hot path.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	v, ok := s.data[key]
	s.mu.RUnlock()
	return v, ok
}

// Delete removes key from the store and reports whether it was present.
func (s *Store) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.data[key]
	if !ok {
		return false
	}
	s.bytes -= int64(len(old)) + int64(len(key))
	delete(s.data, key)
	s.version++
	return true
}

// Len returns the number of keys currently stored.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Bytes returns the approximate resident size of the store in bytes. The GCS
// uses it to decide when to flush lineage to disk (Figure 10b).
func (s *Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Version returns the store's mutation counter.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Keys returns all keys with the given prefix, sorted. Intended for the
// debugging/profiling tools and tests, not hot paths.
func (s *Store) Keys(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Snapshot returns the entire store contents, sorted by key, for chain
// replication state transfer when a new replica joins. The values are the
// store's own, shared and immutable like Get's.
func (s *Store) Snapshot() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries := make([]Entry, 0, len(s.data))
	for k, v := range s.data {
		entries = append(entries, Entry{Key: k, Value: v})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	return entries
}

// Restore replaces the store contents with the given snapshot, adopting its
// values as PutBatch does.
func (s *Store) Restore(entries []Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = make(map[string][]byte, len(entries))
	s.bytes = 0
	for _, e := range entries {
		s.data[e.Key] = e.Value
		s.bytes += int64(len(e.Key)) + int64(len(e.Value))
	}
	s.version++
}

// Flush writes every entry matching the predicate to w in a simple
// length-prefixed binary format and removes it from memory. It returns the
// number of entries flushed and the bytes freed. This is the mechanism behind
// the paper's "GCS flushing" experiment: lineage for completed tasks is
// spilled to durable storage so the in-memory footprint stays bounded.
//
// Flush is atomic with respect to failure: entries are dropped from memory
// only after the writer (including the final buffer flush) has accepted every
// byte. A write error therefore leaves the store unchanged — the entries stay
// resident and the next flush retries them — instead of discarding data that
// never became durable.
func (s *Store) Flush(w io.Writer, match func(key string, value []byte) bool) (int, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bw := bufio.NewWriter(w)
	var flushed []string
	for k, v := range s.data {
		if match != nil && !match(k, v) {
			continue
		}
		if err := writeEntry(bw, k, v); err != nil {
			return 0, 0, fmt.Errorf("kv: flush: %w", err)
		}
		flushed = append(flushed, k)
	}
	if err := bw.Flush(); err != nil {
		return 0, 0, fmt.Errorf("kv: flush: %w", err)
	}
	var count int
	var freed int64
	for _, k := range flushed {
		freed += int64(len(k)) + int64(len(s.data[k]))
		delete(s.data, k)
		count++
	}
	s.bytes -= freed
	if count > 0 {
		s.version++
	}
	return count, freed, nil
}

// ReadFlushed reads entries previously written by Flush from r. It is used by
// tests and by tools that restore flushed lineage for long-running jobs.
func ReadFlushed(r io.Reader) ([]Entry, error) {
	br := bufio.NewReader(r)
	var entries []Entry
	for {
		e, err := readEntry(br)
		if err == io.EOF {
			return entries, nil
		}
		if err != nil {
			return entries, err
		}
		entries = append(entries, e)
	}
}

func writeEntry(w io.Writer, key string, value []byte) error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(key)))
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(value)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, key); err != nil {
		return err
	}
	_, err := w.Write(value)
	return err
}

func readEntry(r io.Reader) (Entry, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Entry{}, err
	}
	klen := binary.BigEndian.Uint32(hdr[:4])
	vlen := binary.BigEndian.Uint32(hdr[4:])
	key := make([]byte, klen)
	if _, err := io.ReadFull(r, key); err != nil {
		return Entry{}, fmt.Errorf("kv: corrupt flush stream: %w", err)
	}
	value := make([]byte, vlen)
	if _, err := io.ReadFull(r, value); err != nil {
		return Entry{}, fmt.Errorf("kv: corrupt flush stream: %w", err)
	}
	return Entry{Key: string(key), Value: value}, nil
}
