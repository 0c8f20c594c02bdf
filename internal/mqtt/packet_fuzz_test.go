package mqtt

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodePacket drives the broker/client packet parsers with
// arbitrary byte streams: fixed-header parsing followed by the
// body decoder for whichever packet type the header claims. The
// parsers sit directly behind the TCP socket on both broker and
// client, so they must never panic, and a PUBLISH that decodes
// successfully must survive a re-encode/re-decode round trip
// (corrupt chaos frames and hostile peers lean on exactly this). A
// decoded topic and payload borrow the body, so the fuzzer also
// overwrites it and checks that a Clone taken before kept both.
func FuzzDecodePacket(f *testing.F) {
	// Seed with one valid encoding of every packet type we speak.
	var buf bytes.Buffer
	cp := ConnectPacket{ClientID: "gw07", KeepAliveSec: 30, CleanSession: true}
	if err := cp.encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))

	for _, p := range []*PublishPacket{
		{Topic: "davide/node07/power", Payload: []byte(`{"node":7}`)},
		{Topic: "davide/node07/energy", Payload: []byte(`{"j":12.5}`), QoS: 1, PacketID: 9, Retain: true},
		{Topic: "a", Dup: true},
	} {
		pkt, err := appendPublish(nil, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pkt)
	}

	buf.Reset()
	sp := SubscribePacket{PacketID: 3, Subs: []Subscription{{Filter: "davide/+/power"}, {Filter: "#", QoS: 1}}}
	if err := sp.encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))

	buf.Reset()
	up := UnsubscribePacket{PacketID: 4, Filters: []string{"davide/+/power"}}
	if err := up.encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))

	buf.Reset()
	if err := encodeConnack(&buf, true, ConnAccepted); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))

	f.Add(encodedPuback(7))
	f.Add(encodedSuback(8, []byte{0, 1, SubackFailure}))
	f.Add(encodedUnsuback(9))
	f.Add(encodedEmpty(PINGREQ))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}) // runaway remaining length

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		hdr, err := ReadFixedHeader(r)
		if err != nil {
			return
		}
		if hdr.Length < 0 || hdr.Length > MaxPacketSize {
			t.Fatalf("header passed validation with length %d", hdr.Length)
		}
		body := make([]byte, hdr.Length)
		if _, err := io.ReadFull(r, body); err != nil {
			return
		}
		switch hdr.Type {
		case CONNECT:
			cp, err := decodeConnect(body)
			if err != nil {
				return
			}
			// Round trip: the session fields of a CONNECT that decoded
			// must survive re-encode/re-decode unchanged.
			var cbuf bytes.Buffer
			if err := cp.encode(&cbuf); err != nil {
				t.Fatalf("re-encode of decoded connect failed: %v", err)
			}
			chdr, err := ReadFixedHeader(&cbuf)
			if err != nil || chdr.Type != CONNECT {
				t.Fatalf("re-read connect header: %v (%v)", chdr.Type, err)
			}
			cp2, err := decodeConnect(cbuf.Bytes())
			if err != nil {
				t.Fatalf("decode of re-encoded connect failed: %v", err)
			}
			if *cp2 != *cp {
				t.Fatalf("connect round trip mismatch: %+v != %+v", cp2, cp)
			}
		case CONNACK:
			_, _, _ = decodeConnack(body)
		case PUBLISH:
			p, err := decodePublish(hdr.Flags, body)
			if err != nil {
				return
			}
			if err := ValidateTopicName(p.Topic); err != nil {
				t.Fatalf("decodePublish accepted invalid topic %q: %v", p.Topic, err)
			}
			// A clone owns its topic and payload: it is taken now and
			// checked once body, which p borrows, has been overwritten.
			clone := Message{Topic: p.Topic, Payload: p.Payload, QoS: p.QoS, Retained: p.Retain}.Clone()
			// Round trip: what decoded must re-encode and decode back
			// to the same message.
			pkt, err := appendPublish(nil, &p)
			if err != nil {
				t.Fatalf("re-encode of decoded publish failed: %v", err)
			}
			r2 := bytes.NewReader(pkt)
			hdr2, err := ReadFixedHeader(r2)
			if err != nil || hdr2.Type != PUBLISH {
				t.Fatalf("re-read header: %v (%v)", hdr2.Type, err)
			}
			body2 := make([]byte, hdr2.Length)
			if _, err := io.ReadFull(r2, body2); err != nil {
				t.Fatal(err)
			}
			p2, err := decodePublish(hdr2.Flags, body2)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if p2.Topic != p.Topic || p2.QoS != p.QoS || p2.Retain != p.Retain ||
				p2.Dup != p.Dup || p2.PacketID != p.PacketID || !bytes.Equal(p2.Payload, p.Payload) {
				t.Fatalf("round trip mismatch: %+v vs %+v", p2, p)
			}
			for i := range body {
				body[i] = ^body[i]
			}
			if clone.Topic != p2.Topic || !bytes.Equal(clone.Payload, p2.Payload) {
				t.Fatalf("clone changed with the read buffer: topic %q payload %q, want %q %q",
					clone.Topic, clone.Payload, p2.Topic, p2.Payload)
			}
		case PUBACK, UNSUBACK:
			_, _ = decodePacketID(body)
		case SUBSCRIBE:
			if sp, err := decodeSubscribe(body); err == nil {
				for _, s := range sp.Subs {
					if err := ValidateTopicFilter(s.Filter); err != nil {
						t.Fatalf("decodeSubscribe accepted invalid filter %q", s.Filter)
					}
				}
			}
		case SUBACK:
			_, _, _ = decodeSuback(body)
		case UNSUBSCRIBE:
			_, _ = decodeUnsubscribe(body)
		}
	})
}

// topicMatchesRef is the matcher TopicMatches replaced, kept as the
// reference: split both strings into levels, then compare.
func topicMatchesRef(filter, topic string) bool {
	f := splitTopic(filter)
	t := splitTopic(topic)
	for i := 0; ; i++ {
		switch {
		case i == len(f) && i == len(t):
			return true
		case i == len(f):
			return false
		case f[i] == "#":
			return true
		case i == len(t):
			return false
		case f[i] == "+":
			// matches any single level
		case f[i] != t[i]:
			return false
		}
	}
}

// FuzzTopicMatches holds the allocation-free matcher to the split-based
// one on arbitrary strings — filters arrive from SUBSCRIBE packets and
// topics from PUBLISH packets, and validation is not what keeps the two
// matchers equal. The seeds are TestTopicMatches's table, committed
// under testdata/fuzz/FuzzTopicMatches.
func FuzzTopicMatches(f *testing.F) {
	f.Fuzz(func(t *testing.T, filter, topic string) {
		if got, want := TopicMatches(filter, topic), topicMatchesRef(filter, topic); got != want {
			t.Fatalf("TopicMatches(%q, %q) = %v, split-based reference says %v", filter, topic, got, want)
		}
	})
}
