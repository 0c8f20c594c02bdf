package mqtt

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestPacketTypeString(t *testing.T) {
	names := map[PacketType]string{
		CONNECT: "CONNECT", CONNACK: "CONNACK", PUBLISH: "PUBLISH",
		PUBACK: "PUBACK", SUBSCRIBE: "SUBSCRIBE", SUBACK: "SUBACK",
		UNSUBSCRIBE: "UNSUBSCRIBE", UNSUBACK: "UNSUBACK",
		PINGREQ: "PINGREQ", PINGRESP: "PINGRESP", DISCONNECT: "DISCONNECT",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("String = %q, want %q", p.String(), want)
		}
	}
	if !strings.Contains(PacketType(0).String(), "0") {
		t.Error("unknown type should include number")
	}
}

func TestRemainingLengthRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 2097151, 2097152, 268435455} {
		got, err := readRemainingLength(bytes.NewReader(appendRemainingLength(nil, n)))
		if err != nil {
			t.Fatalf("read %d: %v", n, err)
		}
		if got != n {
			t.Errorf("round trip %d -> %d", n, got)
		}
	}
	// The encoders bound the length before it is written.
	if _, err := appendPacket(nil, PUBLISH, 0, make([]byte, MaxPacketSize+1)); err != ErrPacketTooLarge {
		t.Errorf("overlong body: err = %v, want ErrPacketTooLarge", err)
	}
	// 5 continuation bytes is malformed.
	bad := bytes.NewReader([]byte{0x80, 0x80, 0x80, 0x80, 0x01})
	if _, err := readRemainingLength(byteReader{bad}); err == nil {
		t.Error("5-byte length should error")
	}
}

func TestConnectRoundTrip(t *testing.T) {
	p := &ConnectPacket{ClientID: "gateway-node07", KeepAliveSec: 30, CleanSession: true}
	var buf bytes.Buffer
	if err := p.encode(&buf); err != nil {
		t.Fatal(err)
	}
	hdr, err := ReadFixedHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Type != CONNECT {
		t.Fatalf("type = %v", hdr.Type)
	}
	body := make([]byte, hdr.Length)
	if _, err := io.ReadFull(&buf, body); err != nil {
		t.Fatal(err)
	}
	got, err := decodeConnect(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.ClientID != p.ClientID || got.KeepAliveSec != p.KeepAliveSec || got.CleanSession != p.CleanSession {
		t.Errorf("round trip = %+v, want %+v", got, p)
	}
}

func TestConnectDecodeErrors(t *testing.T) {
	if _, err := decodeConnect(nil); err == nil {
		t.Error("empty body should error")
	}
	// Wrong protocol name.
	if _, err := decodeConnect(append(appendString(nil, "HTTP"), 4, 0, 0, 0)); err == nil {
		t.Error("wrong protocol should error")
	}
	// Bad protocol level.
	if _, err := decodeConnect(append(appendString(nil, "MQTT"), 9, 0, 0, 0, 0, 0)); err == nil {
		t.Error("bad level should error")
	}
}

func TestConnackRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := encodeConnack(&buf, true, ConnAccepted); err != nil {
		t.Fatal(err)
	}
	hdr, err := ReadFixedHeader(&buf)
	if err != nil || hdr.Type != CONNACK {
		t.Fatal(err, hdr)
	}
	body := make([]byte, hdr.Length)
	_, _ = io.ReadFull(&buf, body)
	sp, code, err := decodeConnack(body)
	if err != nil || !sp || code != ConnAccepted {
		t.Errorf("decode = %v,%v,%v", sp, code, err)
	}
	if _, _, err := decodeConnack([]byte{1}); err == nil {
		t.Error("short connack should error")
	}
}

func TestPublishRoundTrip(t *testing.T) {
	cases := []*PublishPacket{
		{Topic: "davide/node01/power", Payload: []byte("1890.5"), QoS: 0},
		{Topic: "davide/node01/power", Payload: []byte("x"), QoS: 1, PacketID: 77},
		{Topic: "a/b", Payload: nil, QoS: 0, Retain: true},
		{Topic: "a", Payload: bytes.Repeat([]byte{0xAB}, 10000), QoS: 1, PacketID: 65535, Dup: true},
	}
	for _, p := range cases {
		pkt, err := appendPublish(nil, p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		buf := bytes.NewReader(pkt)
		hdr, err := ReadFixedHeader(buf)
		if err != nil || hdr.Type != PUBLISH {
			t.Fatal(err, hdr)
		}
		body := make([]byte, hdr.Length)
		_, _ = io.ReadFull(buf, body)
		got, err := decodePublish(hdr.Flags, body)
		if err != nil {
			t.Fatal(err)
		}
		if got.Topic != p.Topic || !bytes.Equal(got.Payload, p.Payload) ||
			got.QoS != p.QoS || got.Retain != p.Retain || got.Dup != p.Dup ||
			(p.QoS > 0 && got.PacketID != p.PacketID) {
			t.Errorf("round trip = %+v, want %+v", got, p)
		}
	}
}

func TestPublishEncodeErrors(t *testing.T) {
	if _, err := appendPublish(nil, &PublishPacket{Topic: "", QoS: 0}); err == nil {
		t.Error("empty topic should error")
	}
	if _, err := appendPublish(nil, &PublishPacket{Topic: "a/+/b", QoS: 0}); err == nil {
		t.Error("wildcard topic should error")
	}
	if _, err := appendPublish(nil, &PublishPacket{Topic: "a", QoS: 2}); err == nil {
		t.Error("QoS 2 should error")
	}
}

func TestPublishDecodeErrors(t *testing.T) {
	if _, err := decodePublish(0, nil); err == nil {
		t.Error("empty should error")
	}
	if _, err := decodePublish(0x04, []byte{0, 1, 'a'}); err == nil {
		t.Error("QoS 2 flags should error")
	}
	// QoS 1 without packet ID.
	if _, err := decodePublish(0x02, appendString(nil, "t")); err == nil {
		t.Error("missing packet ID should error")
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	p := &SubscribePacket{PacketID: 9, Subs: []Subscription{
		{Filter: "davide/+/power", QoS: 1},
		{Filter: "davide/#", QoS: 0},
	}}
	var buf bytes.Buffer
	if err := p.encode(&buf); err != nil {
		t.Fatal(err)
	}
	hdr, err := ReadFixedHeader(&buf)
	if err != nil || hdr.Type != SUBSCRIBE || hdr.Flags != 0x02 {
		t.Fatal(err, hdr)
	}
	body := make([]byte, hdr.Length)
	_, _ = io.ReadFull(&buf, body)
	got, err := decodeSubscribe(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.PacketID != 9 || len(got.Subs) != 2 || got.Subs[0] != p.Subs[0] || got.Subs[1] != p.Subs[1] {
		t.Errorf("round trip = %+v", got)
	}
}

func TestSubscribeErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := (&SubscribePacket{PacketID: 1}).encode(&buf); err == nil {
		t.Error("no subs should error")
	}
	if err := (&SubscribePacket{PacketID: 1, Subs: []Subscription{{Filter: "a/#/b"}}}).encode(&buf); err == nil {
		t.Error("bad filter should error")
	}
	if err := (&SubscribePacket{PacketID: 1, Subs: []Subscription{{Filter: "a", QoS: 2}}}).encode(&buf); err == nil {
		t.Error("QoS 2 should error")
	}
	if _, err := decodeSubscribe([]byte{0}); err == nil {
		t.Error("short body should error")
	}
	if _, err := decodeSubscribe([]byte{0, 1}); err == nil {
		t.Error("no filters should error")
	}
}

func TestSubackRoundTrip(t *testing.T) {
	buf := bytes.NewBuffer(encodedSuback(5, []byte{0, 1, SubackFailure}))
	hdr, _ := ReadFixedHeader(buf)
	body := make([]byte, hdr.Length)
	_, _ = io.ReadFull(buf, body)
	id, codes, err := decodeSuback(body)
	if err != nil || id != 5 || len(codes) != 3 || codes[2] != SubackFailure {
		t.Errorf("suback = %v %v %v", id, codes, err)
	}
	if _, _, err := decodeSuback([]byte{0, 1}); err == nil {
		t.Error("suback without codes should error")
	}
}

func TestUnsubscribeRoundTrip(t *testing.T) {
	p := &UnsubscribePacket{PacketID: 3, Filters: []string{"a/b", "c/#"}}
	var buf bytes.Buffer
	if err := p.encode(&buf); err != nil {
		t.Fatal(err)
	}
	hdr, _ := ReadFixedHeader(&buf)
	body := make([]byte, hdr.Length)
	_, _ = io.ReadFull(&buf, body)
	got, err := decodeUnsubscribe(body)
	if err != nil || got.PacketID != 3 || len(got.Filters) != 2 {
		t.Errorf("unsubscribe = %+v %v", got, err)
	}
	if err := (&UnsubscribePacket{PacketID: 1}).encode(&buf); err == nil {
		t.Error("no filters should error")
	}
	if _, err := decodeUnsubscribe([]byte{0, 1}); err == nil {
		t.Error("empty filters should error")
	}
}

func TestValidateTopicName(t *testing.T) {
	good := []string{"a", "a/b/c", "davide/node01/power/cpu0", "/leading", "trailing/"}
	for _, s := range good {
		if err := ValidateTopicName(s); err != nil {
			t.Errorf("ValidateTopicName(%q) = %v", s, err)
		}
	}
	bad := []string{"", "a/+/b", "a/#", "+", "#", "nul\x00byte"}
	for _, s := range bad {
		if err := ValidateTopicName(s); err == nil {
			t.Errorf("ValidateTopicName(%q) should error", s)
		}
	}
}

func TestValidateTopicFilter(t *testing.T) {
	good := []string{"a", "a/b", "+", "#", "a/+/c", "a/#", "+/+/+", "a/+/#"}
	for _, s := range good {
		if err := ValidateTopicFilter(s); err != nil {
			t.Errorf("ValidateTopicFilter(%q) = %v", s, err)
		}
	}
	bad := []string{"", "a/#/b", "#/a", "a+/b", "a/b+", "a/b#", "nul\x00"}
	for _, s := range bad {
		if err := ValidateTopicFilter(s); err == nil {
			t.Errorf("ValidateTopicFilter(%q) should error", s)
		}
	}
}

// topicMatchCases is TestTopicMatches's table and, as the committed
// corpus under testdata/fuzz/FuzzTopicMatches, FuzzTopicMatches's seeds.
var topicMatchCases = []struct {
	filter, topic string
	want          bool
}{
	{"a/b/c", "a/b/c", true},
	{"a/b/c", "a/b/d", false},
	{"a/+/c", "a/b/c", true},
	{"a/+/c", "a/b/d", false},
	{"a/#", "a/b/c/d", true},
	{"a/#", "a", true}, // '#' matches the parent level too
	{"#", "anything/at/all", true},
	{"+", "one", true},
	{"+", "one/two", false},
	{"a/+", "a", false},
	{"davide/+/power", "davide/node07/power", true},
	{"davide/+/power", "davide/node07/temp", false},
	{"a/b", "a/b/c", false},
	{"a/b/c", "a/b", false},
	// Empty levels are levels: leading, trailing and doubled '/'.
	{"/a", "/a", true},
	{"/a", "a", false},
	{"a/", "a/", true},
	{"a/", "a", false},
	{"+/a", "/a", true},
	{"a/+", "a/", true},
	{"a//b", "a//b", true},
	{"a/+/b", "a//b", true},
	{"", "", true},
	{"", "a", false},
	// Strings ValidateTopicFilter rejects still get a defined answer:
	// '#' ends the match wherever it stands, '+' inside a level is a
	// literal.
	{"a/#/b", "a/x/y", true},
	{"a+/b", "a+/b", true},
	{"a+/b", "ax/b", false},
}

func TestTopicMatches(t *testing.T) {
	for _, c := range topicMatchCases {
		if got := TopicMatches(c.filter, c.topic); got != c.want {
			t.Errorf("TopicMatches(%q, %q) = %v, want %v", c.filter, c.topic, got, c.want)
		}
	}
}

func TestFixedHeaderTooLarge(t *testing.T) {
	hdr := appendRemainingLength([]byte{byte(PUBLISH) << 4}, MaxPacketSize+1)
	if _, err := ReadFixedHeader(bytes.NewReader(hdr)); err != ErrPacketTooLarge {
		t.Errorf("err = %v, want ErrPacketTooLarge", err)
	}
}

// Property: remaining-length codec round-trips any valid value.
func TestRemainingLengthProperty(t *testing.T) {
	f := func(raw uint32) bool {
		n := int(raw % 268435456)
		got, err := readRemainingLength(bytes.NewReader(appendRemainingLength(nil, n)))
		return err == nil && got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: publish round-trips arbitrary payloads.
func TestPublishRoundTripProperty(t *testing.T) {
	f := func(payload []byte, id uint16, qos bool) bool {
		p := &PublishPacket{Topic: "x/y", Payload: payload, PacketID: id}
		if qos {
			p.QoS = 1
		}
		pkt, err := appendPublish(nil, p)
		if err != nil {
			return len(payload) > MaxPacketSize-16
		}
		buf := bytes.NewReader(pkt)
		hdr, err := ReadFixedHeader(buf)
		if err != nil {
			return false
		}
		body := make([]byte, hdr.Length)
		if _, err := io.ReadFull(buf, body); err != nil {
			return false
		}
		got, err := decodePublish(hdr.Flags, body)
		if err != nil {
			return false
		}
		return got.Topic == p.Topic && bytes.Equal(got.Payload, p.Payload) && got.QoS == p.QoS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
