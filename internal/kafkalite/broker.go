// Package kafkalite is a minimal in-process stand-in for the Apache Kafka
// deployment the paper uses as the stream source (§5.1, artifact appendix:
// "Kafka 0.10.1 to serve as the data source"): topics split into
// partitions, append-only logs with offsets, polling consumers, consumer
// groups with partition assignment, and committed offsets.
//
// It preserves the properties the evaluation relies on — partitioned
// parallel consumption, offset-based replay (at-least-once sources), and
// producer/consumer decoupling — without the network or on-disk format.
package kafkalite

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrOffsetOutOfRange is returned by SeekCommitted when the requested
// offset is outside the partition's valid range [log start, end]: below it
// the records have been trimmed by retention, above it they don't exist
// yet.
var ErrOffsetOutOfRange = errors.New("kafkalite: offset out of range")

// Record is one log entry.
type Record struct {
	// Offset is the record's position in its partition.
	Offset int64
	// Key is the optional partitioning key.
	Key []byte
	// Value is the payload.
	Value []byte
}

// partition is one append-only log.
type partition struct {
	mu      sync.Mutex
	base    int64 // offset of records[0] (> 0 after retention trimming)
	records []Record
}

func (p *partition) append(key, value []byte, retain int) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	off := p.base + int64(len(p.records))
	p.records = append(p.records, Record{Offset: off, Key: key, Value: value})
	if retain > 0 && len(p.records) > retain {
		drop := len(p.records) - retain
		p.base += int64(drop)
		p.records = append([]Record(nil), p.records[drop:]...)
	}
	return off
}

// fetch returns up to max records from offset, and the next offset to poll.
func (p *partition) fetch(offset int64, max int) ([]Record, int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	end := p.base + int64(len(p.records))
	if offset < p.base {
		return nil, 0, fmt.Errorf("kafkalite: offset %d below log start %d (retention)", offset, p.base)
	}
	if offset >= end {
		return nil, offset, nil
	}
	n := int(end - offset)
	if n > max {
		n = max
	}
	i := int(offset - p.base)
	out := make([]Record, n)
	copy(out, p.records[i:i+n])
	return out, offset + int64(n), nil
}

func (p *partition) endOffset() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base + int64(len(p.records))
}

// topic is a set of partitions.
type topic struct {
	parts  []*partition
	retain int
}

// Broker hosts topics and consumer-group state. All methods are safe for
// concurrent use.
type Broker struct {
	mu      sync.Mutex
	topics  map[string]*topic
	groups  map[string]*group
	nextGen int64
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{topics: map[string]*topic{}, groups: map[string]*group{}}
}

// CreateTopic declares a topic with the given partition count. retain
// bounds each partition's in-memory record count (0 = unbounded).
func (b *Broker) CreateTopic(name string, partitions, retain int) error {
	if partitions < 1 {
		return fmt.Errorf("kafkalite: topic %q with %d partitions", name, partitions)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.topics[name]; dup {
		return fmt.Errorf("kafkalite: topic %q exists", name)
	}
	t := &topic{retain: retain}
	for i := 0; i < partitions; i++ {
		t.parts = append(t.parts, &partition{})
	}
	b.topics[name] = t
	return nil
}

func (b *Broker) topicOf(name string) (*topic, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("kafkalite: unknown topic %q", name)
	}
	return t, nil
}

// Partitions returns a topic's partition count.
func (b *Broker) Partitions(name string) (int, error) {
	t, err := b.topicOf(name)
	if err != nil {
		return 0, err
	}
	return len(t.parts), nil
}

// Produce appends a record. A nil key round-robins... rather: the key
// hashes to a partition (Kafka semantics); nil keys go to partition 0's
// sibling chosen by the caller via ProduceTo.
func (b *Broker) Produce(topicName string, key, value []byte) (partitionIdx int, offset int64, err error) {
	t, err := b.topicOf(topicName)
	if err != nil {
		return 0, 0, err
	}
	idx := int(fnv32(key)) % len(t.parts)
	if idx < 0 {
		idx += len(t.parts)
	}
	off := t.parts[idx].append(key, value, t.retain)
	return idx, off, nil
}

// ProduceTo appends a record to an explicit partition.
func (b *Broker) ProduceTo(topicName string, partitionIdx int, key, value []byte) (int64, error) {
	t, err := b.topicOf(topicName)
	if err != nil {
		return 0, err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.parts) {
		return 0, fmt.Errorf("kafkalite: partition %d of %q out of range", partitionIdx, topicName)
	}
	off := t.parts[partitionIdx].append(key, value, t.retain)
	return off, nil
}

// Fetch reads up to max records from (topic, partition) starting at offset.
// It returns the records and the next offset to poll.
func (b *Broker) Fetch(topicName string, partitionIdx int, offset int64, max int) ([]Record, int64, error) {
	t, err := b.topicOf(topicName)
	if err != nil {
		return nil, 0, err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.parts) {
		return nil, 0, fmt.Errorf("kafkalite: partition %d of %q out of range", partitionIdx, topicName)
	}
	return t.parts[partitionIdx].fetch(offset, max)
}

// LogStartOffset returns the oldest offset still held by the partition
// (> 0 once retention has trimmed the log head).
func (b *Broker) LogStartOffset(topicName string, partitionIdx int) (int64, error) {
	t, err := b.topicOf(topicName)
	if err != nil {
		return 0, err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.parts) {
		return 0, fmt.Errorf("kafkalite: partition %d of %q out of range", partitionIdx, topicName)
	}
	p := t.parts[partitionIdx]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base, nil
}

// SeekCommitted rewinds (or fast-forwards) a group's committed offset for
// one partition to an arbitrary position — the first-class seek API behind
// checkpoint recovery (a snapshot records the offsets of epoch N; restore
// seeks back to them so replay re-reads exactly the post-snapshot suffix).
// Unlike CommitOffset, which only ever advances, SeekCommitted sets the
// committed offset unconditionally — after validating it against the
// partition's live range: offsets below the log start (trimmed by
// retention) or above the end (not yet produced) are rejected with
// ErrOffsetOutOfRange, so a corrupt snapshot can never silently pin a
// consumer to records that don't exist. Seeking exactly to the end offset
// is valid: it means "resume at live head".
func (b *Broker) SeekCommitted(groupID, topicName string, partitionIdx int, offset int64) error {
	t, err := b.topicOf(topicName)
	if err != nil {
		return err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.parts) {
		return fmt.Errorf("kafkalite: partition %d of %q out of range", partitionIdx, topicName)
	}
	p := t.parts[partitionIdx]
	p.mu.Lock()
	base, end := p.base, p.base+int64(len(p.records))
	p.mu.Unlock()
	if offset < base || offset > end {
		return fmt.Errorf("%w: %d outside [%d, %d] of %s/%d", ErrOffsetOutOfRange, offset, base, end, topicName, partitionIdx)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.groups[groupID]
	if !ok {
		return fmt.Errorf("kafkalite: unknown group %q", groupID)
	}
	tc, ok := g.commits[topicName]
	if !ok {
		tc = map[int]int64{}
		g.commits[topicName] = tc
	}
	tc[partitionIdx] = offset
	return nil
}

// EndOffset returns the next offset that would be written.
func (b *Broker) EndOffset(topicName string, partitionIdx int) (int64, error) {
	t, err := b.topicOf(topicName)
	if err != nil {
		return 0, err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.parts) {
		return 0, fmt.Errorf("kafkalite: partition %d of %q out of range", partitionIdx, topicName)
	}
	return t.parts[partitionIdx].endOffset(), nil
}

// group is consumer-group state: member ids and committed offsets.
type group struct {
	members map[string]bool
	commits map[string]map[int]int64 // topic -> partition -> offset
	gen     int64
}

// JoinGroup registers a member and returns its partition assignment for
// the topic (range assignment over sorted member ids, like Kafka's range
// assignor) plus a generation number that changes on every membership
// change.
func (b *Broker) JoinGroup(groupID, memberID, topicName string) ([]int, int64, error) {
	t, err := b.topicOf(topicName)
	if err != nil {
		return nil, 0, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.groups[groupID]
	if !ok {
		g = &group{members: map[string]bool{}, commits: map[string]map[int]int64{}}
		b.groups[groupID] = g
	}
	if !g.members[memberID] {
		g.members[memberID] = true
		b.nextGen++
		g.gen = b.nextGen
	}
	return assignRange(sortedKeys(g.members), memberID, len(t.parts)), g.gen, nil
}

// LeaveGroup removes a member (its partitions are reassigned on the next
// JoinGroup of any member).
func (b *Broker) LeaveGroup(groupID, memberID string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if g, ok := b.groups[groupID]; ok {
		delete(g.members, memberID)
		b.nextGen++
		g.gen = b.nextGen
	}
}

// Assignment recomputes a member's partitions (call after a generation
// change).
func (b *Broker) Assignment(groupID, memberID, topicName string) ([]int, int64, error) {
	t, err := b.topicOf(topicName)
	if err != nil {
		return nil, 0, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.groups[groupID]
	if !ok || !g.members[memberID] {
		return nil, 0, fmt.Errorf("kafkalite: member %q not in group %q", memberID, groupID)
	}
	return assignRange(sortedKeys(g.members), memberID, len(t.parts)), g.gen, nil
}

// CommitOffset records the group's progress on a partition.
func (b *Broker) CommitOffset(groupID, topicName string, partitionIdx int, offset int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.groups[groupID]
	if !ok {
		return fmt.Errorf("kafkalite: unknown group %q", groupID)
	}
	tc, ok := g.commits[topicName]
	if !ok {
		tc = map[int]int64{}
		g.commits[topicName] = tc
	}
	if offset > tc[partitionIdx] {
		tc[partitionIdx] = offset
	}
	return nil
}

// CommittedOffset returns the group's committed offset for a partition
// (0 when never committed).
func (b *Broker) CommittedOffset(groupID, topicName string, partitionIdx int) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if g, ok := b.groups[groupID]; ok {
		return g.commits[topicName][partitionIdx]
	}
	return 0
}

// assignRange gives member its contiguous partition range.
func assignRange(members []string, memberID string, partitions int) []int {
	idx := -1
	for i, m := range members {
		if m == memberID {
			idx = i
			break
		}
	}
	if idx < 0 || len(members) == 0 {
		return nil
	}
	per := partitions / len(members)
	extra := partitions % len(members)
	start := idx*per + min(idx, extra)
	count := per
	if idx < extra {
		count++
	}
	out := make([]int, 0, count)
	for p := start; p < start+count && p < partitions; p++ {
		out = append(out, p)
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fnv32(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
