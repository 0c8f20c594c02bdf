// Package mqtt implements the subset of MQTT 3.1.1 used by the
// D.A.V.I.D.E. telemetry plane (§III-A1 of the paper): CONNECT/CONNACK,
// PUBLISH with QoS 0 and 1 (PUBACK), SUBSCRIBE/SUBACK with + and #
// wildcards, UNSUBSCRIBE/UNSUBACK, PINGREQ/PINGRESP and DISCONNECT. The
// RETAIN flag is parsed and routed, but there is no retained store: a
// RETAIN publish reaches the current subscribers only. It contains a
// broker (the role mosquitto plays on the D.A.V.I.D.E. management node)
// and a client (the role the energy gateways and the telemetry agents
// play), both over TCP or an in-process byte stream (pipe.go), using
// only the standard library.
package mqtt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// PacketType is the MQTT control-packet type from the fixed header.
type PacketType byte

// MQTT 3.1.1 control packet types.
const (
	CONNECT     PacketType = 1
	CONNACK     PacketType = 2
	PUBLISH     PacketType = 3
	PUBACK      PacketType = 4
	SUBSCRIBE   PacketType = 8
	SUBACK      PacketType = 9
	UNSUBSCRIBE PacketType = 10
	UNSUBACK    PacketType = 11
	PINGREQ     PacketType = 12
	PINGRESP    PacketType = 13
	DISCONNECT  PacketType = 14
)

// String names the packet type.
func (t PacketType) String() string {
	switch t {
	case CONNECT:
		return "CONNECT"
	case CONNACK:
		return "CONNACK"
	case PUBLISH:
		return "PUBLISH"
	case PUBACK:
		return "PUBACK"
	case SUBSCRIBE:
		return "SUBSCRIBE"
	case SUBACK:
		return "SUBACK"
	case UNSUBSCRIBE:
		return "UNSUBSCRIBE"
	case UNSUBACK:
		return "UNSUBACK"
	case PINGREQ:
		return "PINGREQ"
	case PINGRESP:
		return "PINGRESP"
	case DISCONNECT:
		return "DISCONNECT"
	default:
		return fmt.Sprintf("PacketType(%d)", byte(t))
	}
}

// Errors shared by the codec.
var (
	ErrMalformed       = errors.New("mqtt: malformed packet")
	ErrPacketTooLarge  = errors.New("mqtt: packet exceeds maximum size")
	ErrBadTopic        = errors.New("mqtt: invalid topic")
	ErrConnRefused     = errors.New("mqtt: connection refused")
	errRemainingLength = errors.New("mqtt: bad remaining length")
)

// MaxPacketSize bounds accepted packets; telemetry messages are small, so a
// tight bound protects the broker from hostile or broken peers.
const MaxPacketSize = 1 << 20

// FixedHeader is the two-to-five byte header of every packet.
type FixedHeader struct {
	Type   PacketType
	Flags  byte // lower nibble of byte 1
	Length int  // remaining length
}

// appendRemainingLength appends the MQTT variable-length integer. Its
// callers (appendPacket, appendPublish) bound n by MaxPacketSize first,
// well inside the encoding's [0, 268435455].
func appendRemainingLength(dst []byte, n int) []byte {
	for {
		d := byte(n % 128)
		n /= 128
		if n > 0 {
			d |= 0x80
		}
		dst = append(dst, d)
		if n == 0 {
			return dst
		}
	}
}

// readRemainingLength decodes the MQTT variable-length integer.
func readRemainingLength(r io.ByteReader) (int, error) {
	mul := 1
	val := 0
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		val += int(b&0x7f) * mul
		if b&0x80 == 0 {
			return val, nil
		}
		mul *= 128
	}
	return 0, errRemainingLength
}

// byteReader adapts a plain io.Reader to io.ByteReader without buffering
// beyond single bytes (the fixed header must not over-read the stream).
type byteReader struct{ r io.Reader }

func (b byteReader) ReadByte() (byte, error) {
	var one [1]byte
	if _, err := io.ReadFull(b.r, one[:]); err != nil {
		return 0, err
	}
	return one[0], nil
}

// ReadFixedHeader reads the fixed header from the stream, through the
// reader's own ReadByte when it has one (a connection's bufio.Reader
// serves the two to five bytes from memory, not one syscall each).
func ReadFixedHeader(r io.Reader) (FixedHeader, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = byteReader{r}
	}
	first, err := br.ReadByte()
	if err != nil {
		return FixedHeader{}, err
	}
	length, err := readRemainingLength(br)
	if err != nil {
		return FixedHeader{}, err
	}
	if length > MaxPacketSize {
		return FixedHeader{}, ErrPacketTooLarge
	}
	return FixedHeader{Type: PacketType(first >> 4), Flags: first & 0x0f, Length: length}, nil
}

// wireSize is the packet's encoded size: the type byte, the one to four
// remaining-length bytes and the body.
func (h FixedHeader) wireSize() int {
	n := 2 + h.Length
	for l := h.Length; l >= 128; l /= 128 {
		n++
	}
	return n
}

// readBufSize sizes the per-connection read buffer to the packet (fixed
// header + a 64-sample telemetry frame is ~210 B), not to 16 KiB: a rack
// broker holds one per gateway, and that cost 76 MB resident at 1 024
// gateways for nothing. A body larger than the buffer bypasses it.
const readBufSize = 512

// readPacket reads one packet from a connection's reader: the fixed
// header, then the body into a pooled buffer the caller must Put back.
func readPacket(br *bufio.Reader, bufs *bufPool) (FixedHeader, *pbuf, error) {
	hdr, err := ReadFixedHeader(br)
	if err != nil {
		return hdr, nil, err
	}
	pb := bufs.Get(hdr.Length)
	if _, err := io.ReadFull(br, pb.b); err != nil {
		bufs.Put(pb)
		return hdr, nil, err
	}
	return hdr, pb, nil
}

// readStringView consumes an MQTT UTF-8 prefixed string from buf,
// returning the string, borrowed from buf (see borrowString), and the
// remaining bytes.
func readStringView(buf []byte) (string, []byte, error) {
	if len(buf) < 2 {
		return "", nil, ErrMalformed
	}
	n := int(binary.BigEndian.Uint16(buf))
	if len(buf) < 2+n {
		return "", nil, ErrMalformed
	}
	if !utf8.Valid(buf[2 : 2+n]) {
		return "", nil, ErrMalformed
	}
	return borrowString(buf[2 : 2+n]), buf[2+n:], nil
}

// readString is readStringView returning a copy of the string, which the
// caller may keep.
func readString(buf []byte) (string, []byte, error) {
	s, rest, err := readStringView(buf)
	return strings.Clone(s), rest, err
}

// ConnectPacket is the CONNECT payload subset we support (no will, no
// username/password — the telemetry plane runs on a trusted management
// network, as in the real system).
type ConnectPacket struct {
	ClientID     string
	KeepAliveSec uint16
	CleanSession bool
}

// encode serialises the packet with its fixed header into w.
func (p *ConnectPacket) encode(w io.Writer) error {
	var body []byte
	body = appendString(body, "MQTT")
	body = append(body, 4) // protocol level 3.1.1
	flags := byte(0)
	if p.CleanSession {
		flags |= 0x02
	}
	body = append(body, flags)
	body = binary.BigEndian.AppendUint16(body, p.KeepAliveSec)
	body = appendString(body, p.ClientID)
	return writePacket(w, CONNECT, 0, body)
}

// decodeConnect parses a CONNECT body.
func decodeConnect(body []byte) (*ConnectPacket, error) {
	proto, rest, err := readString(body)
	if err != nil {
		return nil, err
	}
	if proto != "MQTT" && proto != "MQIsdp" {
		return nil, fmt.Errorf("%w: protocol %q", ErrMalformed, proto)
	}
	if len(rest) < 4 {
		return nil, ErrMalformed
	}
	level := rest[0]
	if level != 4 && level != 3 {
		return nil, fmt.Errorf("%w: protocol level %d", ErrMalformed, level)
	}
	flags := rest[1]
	keep := binary.BigEndian.Uint16(rest[2:4])
	id, _, err := readString(rest[4:])
	if err != nil {
		return nil, err
	}
	return &ConnectPacket{ClientID: id, KeepAliveSec: keep, CleanSession: flags&0x02 != 0}, nil
}

// ConnackCode is the CONNACK return code.
type ConnackCode byte

// CONNACK return codes (3.1.1 table 3.1).
const (
	ConnAccepted          ConnackCode = 0
	ConnRefusedProtocol   ConnackCode = 1
	ConnRefusedIdentifier ConnackCode = 2
	ConnRefusedServer     ConnackCode = 3
)

func encodeConnack(w io.Writer, sessionPresent bool, code ConnackCode) error {
	sp := byte(0)
	if sessionPresent {
		sp = 1
	}
	return writePacket(w, CONNACK, 0, []byte{sp, byte(code)})
}

func decodeConnack(body []byte) (sessionPresent bool, code ConnackCode, err error) {
	if len(body) != 2 {
		return false, 0, ErrMalformed
	}
	return body[0]&1 == 1, ConnackCode(body[1]), nil
}

// PublishPacket is an application message.
//
// Ownership: a packet produced by decodePublish borrows both Topic and
// Payload from the read buffer the body was parsed out of (zero-copy);
// neither is valid once that buffer is reused. The broker handles every
// packet within its read cycle and keeps none beyond it: route copies the
// topic and payload into the encoded packet it queues.
type PublishPacket struct {
	Topic    string
	Payload  []byte
	QoS      byte // 0 or 1
	Retain   bool
	Dup      bool
	PacketID uint16 // present when QoS > 0
}

// appendPublish appends the full encoded packet (fixed header + body) to
// dst. The body length is computed up front, so the payload is copied
// exactly once, straight into dst.
func appendPublish(dst []byte, p *PublishPacket) ([]byte, error) {
	if err := ValidateTopicName(p.Topic); err != nil {
		return nil, err
	}
	if p.QoS > 1 {
		return nil, fmt.Errorf("%w: QoS %d unsupported", ErrMalformed, p.QoS)
	}
	flags := p.QoS << 1
	if p.Retain {
		flags |= 0x01
	}
	if p.Dup {
		flags |= 0x08
	}
	bodyLen := 2 + len(p.Topic) + len(p.Payload)
	if p.QoS > 0 {
		bodyLen += 2
	}
	if bodyLen > MaxPacketSize {
		return nil, ErrPacketTooLarge
	}
	if need := len(dst) + 5 + bodyLen; cap(dst) < need {
		dst = append(make([]byte, 0, need), dst...) // one allocation, not one per append below
	}
	dst = append(dst, byte(PUBLISH)<<4|flags)
	dst = appendRemainingLength(dst, bodyLen)
	dst = appendString(dst, p.Topic)
	if p.QoS > 0 {
		dst = binary.BigEndian.AppendUint16(dst, p.PacketID)
	}
	return append(dst, p.Payload...), nil
}

// decodePublish parses a PUBLISH body into a value, so neither reader puts
// a packet on the heap. Topic and Payload borrow from body — see the
// PublishPacket ownership note.
func decodePublish(flags byte, body []byte) (PublishPacket, error) {
	p := PublishPacket{
		Retain: flags&0x01 != 0,
		QoS:    (flags >> 1) & 0x03,
		Dup:    flags&0x08 != 0,
	}
	if p.QoS > 1 {
		return PublishPacket{}, fmt.Errorf("%w: QoS %d unsupported", ErrMalformed, p.QoS)
	}
	topic, rest, err := readStringView(body)
	if err != nil {
		return PublishPacket{}, err
	}
	if err := ValidateTopicName(topic); err != nil {
		return PublishPacket{}, err
	}
	p.Topic = topic
	if p.QoS > 0 {
		if len(rest) < 2 {
			return PublishPacket{}, ErrMalformed
		}
		p.PacketID = binary.BigEndian.Uint16(rest)
		rest = rest[2:]
	}
	p.Payload = rest
	return p, nil
}

// borrowString views b as a string without copying it. The string is
// only as immutable as b: it is valid while b is not overwritten, which
// is the borrow a decoded topic makes of its read buffer.
func borrowString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

func encodedPuback(id uint16) []byte {
	return []byte{byte(PUBACK) << 4, 2, byte(id >> 8), byte(id)}
}

func decodePacketID(body []byte) (uint16, error) {
	if len(body) != 2 {
		return 0, ErrMalformed
	}
	return binary.BigEndian.Uint16(body), nil
}

// Subscription pairs a topic filter with a requested QoS.
type Subscription struct {
	Filter string
	QoS    byte
}

// SubscribePacket carries one or more subscription requests.
type SubscribePacket struct {
	PacketID uint16
	Subs     []Subscription
}

func (p *SubscribePacket) encode(w io.Writer) error {
	if len(p.Subs) == 0 {
		return ErrMalformed
	}
	var body []byte
	body = binary.BigEndian.AppendUint16(body, p.PacketID)
	for _, s := range p.Subs {
		if err := ValidateTopicFilter(s.Filter); err != nil {
			return err
		}
		if s.QoS > 1 {
			return fmt.Errorf("%w: QoS %d unsupported", ErrMalformed, s.QoS)
		}
		body = appendString(body, s.Filter)
		body = append(body, s.QoS)
	}
	return writePacket(w, SUBSCRIBE, 0x02, body)
}

func decodeSubscribe(body []byte) (*SubscribePacket, error) {
	if len(body) < 2 {
		return nil, ErrMalformed
	}
	p := &SubscribePacket{PacketID: binary.BigEndian.Uint16(body)}
	rest := body[2:]
	for len(rest) > 0 {
		filter, r2, err := readString(rest)
		if err != nil {
			return nil, err
		}
		if len(r2) < 1 {
			return nil, ErrMalformed
		}
		qos := r2[0]
		if qos > 1 {
			return nil, fmt.Errorf("%w: QoS %d unsupported", ErrMalformed, qos)
		}
		if err := ValidateTopicFilter(filter); err != nil {
			return nil, err
		}
		p.Subs = append(p.Subs, Subscription{Filter: filter, QoS: qos})
		rest = r2[1:]
	}
	if len(p.Subs) == 0 {
		return nil, ErrMalformed
	}
	return p, nil
}

// SubackFailure is the per-filter failure code in a SUBACK.
const SubackFailure byte = 0x80

func decodeSuback(body []byte) (id uint16, codes []byte, err error) {
	if len(body) < 3 {
		return 0, nil, ErrMalformed
	}
	return binary.BigEndian.Uint16(body), append([]byte(nil), body[2:]...), nil
}

// UnsubscribePacket removes topic filters.
type UnsubscribePacket struct {
	PacketID uint16
	Filters  []string
}

func (p *UnsubscribePacket) encode(w io.Writer) error {
	if len(p.Filters) == 0 {
		return ErrMalformed
	}
	var body []byte
	body = binary.BigEndian.AppendUint16(body, p.PacketID)
	for _, f := range p.Filters {
		if err := ValidateTopicFilter(f); err != nil {
			return err
		}
		body = appendString(body, f)
	}
	return writePacket(w, UNSUBSCRIBE, 0x02, body)
}

func decodeUnsubscribe(body []byte) (*UnsubscribePacket, error) {
	if len(body) < 2 {
		return nil, ErrMalformed
	}
	p := &UnsubscribePacket{PacketID: binary.BigEndian.Uint16(body)}
	rest := body[2:]
	for len(rest) > 0 {
		f, r2, err := readString(rest)
		if err != nil {
			return nil, err
		}
		p.Filters = append(p.Filters, f)
		rest = r2
	}
	if len(p.Filters) == 0 {
		return nil, ErrMalformed
	}
	return p, nil
}

// encodedEmpty is a packet with no body (PINGREQ/PINGRESP/DISCONNECT).
func encodedEmpty(t PacketType) []byte {
	return []byte{byte(t) << 4, 0}
}

// appendPacket assembles fixed header + body into dst.
func appendPacket(dst []byte, t PacketType, flags byte, body []byte) ([]byte, error) {
	if len(body) > MaxPacketSize {
		return nil, ErrPacketTooLarge
	}
	dst = append(dst, byte(t)<<4|flags)
	dst = appendRemainingLength(dst, len(body))
	return append(dst, body...), nil
}

// writePacket assembles fixed header + body and writes it in one call so
// concurrent writers on the same connection cannot interleave.
func writePacket(w io.Writer, t PacketType, flags byte, body []byte) error {
	buf, err := appendPacket(nil, t, flags, body)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// ValidateTopicName checks a PUBLISH topic: non-empty, no wildcards, no NUL.
func ValidateTopicName(topic string) error {
	if topic == "" || len(topic) > 0xffff {
		return ErrBadTopic
	}
	for _, r := range topic {
		if r == '+' || r == '#' || r == 0 {
			return ErrBadTopic
		}
	}
	return nil
}

// ValidateTopicFilter checks a SUBSCRIBE filter: non-empty, '#' only as the
// final level, '+' only as a whole level.
func ValidateTopicFilter(filter string) error {
	if filter == "" || len(filter) > 0xffff {
		return ErrBadTopic
	}
	levels := splitTopic(filter)
	for i, l := range levels {
		switch {
		case l == "#":
			if i != len(levels)-1 {
				return ErrBadTopic
			}
		case l == "+":
			// single-level wildcard, fine anywhere
		default:
			for _, r := range l {
				if r == '+' || r == '#' || r == 0 {
					return ErrBadTopic
				}
			}
		}
	}
	return nil
}

// splitTopic splits a topic or filter into levels.
func splitTopic(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// TopicMatches reports whether a concrete topic name matches a filter with
// MQTT wildcard semantics. It walks both strings level by level and
// allocates nothing: the broker calls it per subscription per publish.
func TopicMatches(filter, topic string) bool {
	fMore, tMore := true, true // levels left to compare
	for {
		if !fMore {
			return !tMore
		}
		var fl, tl string
		fl, filter, fMore = strings.Cut(filter, "/")
		if fl == "#" {
			return true
		}
		if !tMore {
			return false
		}
		tl, topic, tMore = strings.Cut(topic, "/")
		if fl != "+" && fl != tl {
			return false
		}
	}
}
