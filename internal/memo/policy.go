// Admission policies. PolicyTinyLFU puts each shard behind a
// doorkeeper (package admit, DESIGN.md §15): every lookup marks its key
// in the shard's door, and a store of an absent key lands only once the
// door has seen the key looked up twice in an aging period; otherwise
// it counts one rejection and allocates nothing. A cold scan therefore
// leaves nothing resident, and what is resident is ordinary LRU.
//
// Only lookups mark the door; a store only reads it. The door's fill
// bound counts marks, so a store that marked it would let a caller that
// stores without looking up fill the table, and the probe loop would
// never find an empty slot.

package memo

import "fmt"

// Policy selects the cache's admission policy. The zero value is
// PolicyLRU.
type Policy uint8

const (
	// PolicyLRU stores every miss; the least-recently-used entry of a
	// full shard is evicted.
	PolicyLRU Policy = iota
	// PolicyTinyLFU is LRU behind the doorkeeper: a store of an absent
	// key lands only on the key's second sighting in an aging period.
	// It keeps the TinyLFU name as its -cache-policy spelling: the
	// doorkeeper is TinyLFU's first stage, here the whole policy.
	PolicyTinyLFU
)

// String returns the spelling ParsePolicy accepts ("lru", "tinylfu").
func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyTinyLFU:
		return "tinylfu"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy parses the -cache-policy flag spelling of a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "lru":
		return PolicyLRU, nil
	case "tinylfu":
		return PolicyTinyLFU, nil
	default:
		return PolicyLRU, fmt.Errorf("unknown cache policy %q (want lru or tinylfu)", s)
	}
}
