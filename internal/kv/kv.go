// Package kv implements the single-shard key-value store underlying the
// Global Control Store. The paper uses one Redis instance per GCS shard with
// entirely single-key operations; this package provides the equivalent in
// pure Go: a map with per-store locking, prefix scans for debugging tools,
// and memory accounting.
//
// A store adopts the values it is handed: every replica of a chain holds the
// same immutable bytes, so each committed value exists once however many
// replicas there are. A caller never writes to a value after handing it over,
// and the store never writes to one either: a newer Put replaces it.
package kv

import (
	"sort"
	"strings"
	"sync"
)

// Entry is a key-value pair, the unit of a snapshot.
type Entry struct {
	Key   string
	Value []byte
}

// Store is an in-memory key-value store safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	data  map[string][]byte //guard:by mu.R
	bytes int64             //guard:by mu.R — approximate resident size of keys + values
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

// Len returns the number of keys currently stored.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Bytes returns the approximate resident size of the store in bytes: keys
// plus values. The GCS sums it over shards to report its memory footprint.
func (s *Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
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
}
