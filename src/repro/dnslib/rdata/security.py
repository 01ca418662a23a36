"""Security and certificate record types: CAA, URI, CERT, SSHFP, TLSA,
SMIMEA, OPENPGPKEY, HIP, DHCID and TKEY."""

from __future__ import annotations

import base64
import binascii

from ..name import Name
from ..types import RRType
from ..wire import WireError, WireReader, WireWriter
from . import RData, register
from ._util import quote_text


@register(RRType.CAA)
class CAA(RData):
    """Certification Authority Authorization (RFC 8659)."""

    #: Tags RFC 8659 defines; anything else is flagged by the CAA module.
    KNOWN_TAGS = frozenset({b"issue", b"issuewild", b"iodef"})

    __slots__ = ("flags", "tag", "value")

    def __init__(self, flags: int, tag: bytes | str, value: bytes | str):
        if isinstance(tag, str):
            tag = tag.encode("ascii")
        if isinstance(value, str):
            value = value.encode("utf-8")
        if not tag:
            raise ValueError("CAA tag must be non-empty")
        self.flags = flags
        self.tag = tag
        self.value = value

    @property
    def critical(self) -> bool:
        return bool(self.flags & 0x80)

    def tag_is_valid(self) -> bool:
        """RFC 8659 restricts tags to ASCII letters and digits."""
        return bool(self.tag) and all(
            0x30 <= b <= 0x39 or 0x41 <= b <= 0x5A or 0x61 <= b <= 0x7A for b in self.tag
        )

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u8(self.flags)
        writer.write_u8(len(self.tag))
        writer.write(self.tag)
        writer.write(self.value)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "CAA":
        end = reader.offset + rdlength
        flags = reader.read_u8()
        tag = reader.read(reader.read_u8())
        if not tag:
            raise WireError("CAA tag is empty")
        if reader.offset > end:
            raise WireError("CAA tag overruns rdlength")
        return cls(flags, tag, reader.read(end - reader.offset))

    def to_text(self) -> str:
        return f"{self.flags} {self.tag.decode('ascii', 'replace')} {quote_text(self.value)}"

    def zdns_answer(self) -> object:
        return {
            "flag": self.flags,
            "tag": self.tag.decode("ascii", "replace"),
            "value": self.value.decode("utf-8", "replace"),
        }


@register(RRType.URI)
class URI(RData):
    """Uniform resource identifier record (RFC 7553)."""

    __slots__ = ("priority", "weight", "target")

    def __init__(self, priority: int, weight: int, target: bytes | str):
        if isinstance(target, str):
            target = target.encode("utf-8")
        self.priority = priority
        self.weight = weight
        self.target = target

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u16(self.priority)
        writer.write_u16(self.weight)
        writer.write(self.target)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "URI":
        if rdlength < 4:
            raise WireError("URI rdata too short")
        return cls(reader.read_u16(), reader.read_u16(), reader.read(rdlength - 4))

    def to_text(self) -> str:
        return f"{self.priority} {self.weight} {quote_text(self.target)}"


@register(RRType.CERT)
class CERT(RData):
    """Certificate record (RFC 4398)."""

    __slots__ = ("cert_type", "key_tag", "algorithm", "certificate")

    def __init__(self, cert_type: int, key_tag: int, algorithm: int, certificate: bytes):
        self.cert_type = cert_type
        self.key_tag = key_tag
        self.algorithm = algorithm
        self.certificate = certificate

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u16(self.cert_type)
        writer.write_u16(self.key_tag)
        writer.write_u8(self.algorithm)
        writer.write(self.certificate)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "CERT":
        if rdlength < 5:
            raise WireError("CERT rdata too short")
        return cls(reader.read_u16(), reader.read_u16(), reader.read_u8(), reader.read(rdlength - 5))

    def to_text(self) -> str:
        cert = base64.b64encode(self.certificate).decode("ascii")
        return f"{self.cert_type} {self.key_tag} {self.algorithm} {cert}"


@register(RRType.SSHFP)
class SSHFP(RData):
    """SSH public-key fingerprint (RFC 4255)."""

    __slots__ = ("algorithm", "fp_type", "fingerprint")

    def __init__(self, algorithm: int, fp_type: int, fingerprint: bytes):
        self.algorithm = algorithm
        self.fp_type = fp_type
        self.fingerprint = fingerprint

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u8(self.algorithm)
        writer.write_u8(self.fp_type)
        writer.write(self.fingerprint)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "SSHFP":
        if rdlength < 2:
            raise WireError("SSHFP rdata too short")
        return cls(reader.read_u8(), reader.read_u8(), reader.read(rdlength - 2))

    def to_text(self) -> str:
        return f"{self.algorithm} {self.fp_type} {binascii.hexlify(self.fingerprint).decode().upper()}"


class TLSARData(RData):
    """TLSA/SMIMEA shape (RFC 6698 / RFC 8162)."""

    __slots__ = ("usage", "selector", "matching_type", "certificate_data")

    def __init__(self, usage: int, selector: int, matching_type: int, certificate_data: bytes):
        self.usage = usage
        self.selector = selector
        self.matching_type = matching_type
        self.certificate_data = certificate_data

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u8(self.usage)
        writer.write_u8(self.selector)
        writer.write_u8(self.matching_type)
        writer.write(self.certificate_data)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int):
        if rdlength < 3:
            raise WireError("TLSA rdata too short")
        return cls(reader.read_u8(), reader.read_u8(), reader.read_u8(), reader.read(rdlength - 3))

    def to_text(self) -> str:
        return (
            f"{self.usage} {self.selector} {self.matching_type} "
            f"{binascii.hexlify(self.certificate_data).decode().upper()}"
        )


@register(RRType.TLSA)
class TLSA(TLSARData):
    """DANE TLS association (RFC 6698)."""

    __slots__ = ()


@register(RRType.SMIMEA)
class SMIMEA(TLSARData):
    """S/MIME certificate association (RFC 8162)."""

    __slots__ = ()


@register(RRType.OPENPGPKEY)
class OPENPGPKEY(RData):
    """OpenPGP public key (RFC 7929)."""

    __slots__ = ("key",)

    def __init__(self, key: bytes):
        self.key = key

    def to_wire(self, writer: WireWriter) -> None:
        writer.write(self.key)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "OPENPGPKEY":
        return cls(reader.read(rdlength))

    def to_text(self) -> str:
        return base64.b64encode(self.key).decode("ascii")


@register(RRType.HIP)
class HIP(RData):
    """Host identity protocol (RFC 8005)."""

    __slots__ = ("pk_algorithm", "hit", "public_key", "servers")

    def __init__(self, pk_algorithm: int, hit: bytes, public_key: bytes, servers: tuple[Name, ...] = ()):
        self.pk_algorithm = pk_algorithm
        self.hit = hit
        self.public_key = public_key
        self.servers = tuple(servers)

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u8(len(self.hit))
        writer.write_u8(self.pk_algorithm)
        writer.write_u16(len(self.public_key))
        writer.write(self.hit)
        writer.write(self.public_key)
        for server in self.servers:
            writer.write_name(server, compress=False)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "HIP":
        end = reader.offset + rdlength
        hit_length = reader.read_u8()
        pk_algorithm = reader.read_u8()
        pk_length = reader.read_u16()
        hit = reader.read(hit_length)
        public_key = reader.read(pk_length)
        servers = []
        while reader.offset < end:
            servers.append(reader.read_name())
        if reader.offset != end:
            raise WireError("HIP servers overrun rdlength")
        return cls(pk_algorithm, hit, public_key, tuple(servers))

    def to_text(self) -> str:
        parts = [
            str(self.pk_algorithm),
            binascii.hexlify(self.hit).decode().upper(),
            base64.b64encode(self.public_key).decode("ascii"),
        ]
        parts.extend(server.to_text() for server in self.servers)
        return " ".join(parts)


@register(RRType.DHCID)
class DHCID(RData):
    """DHCP identifier (RFC 4701)."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data

    def to_wire(self, writer: WireWriter) -> None:
        writer.write(self.data)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "DHCID":
        return cls(reader.read(rdlength))

    def to_text(self) -> str:
        return base64.b64encode(self.data).decode("ascii")


@register(RRType.TKEY)
class TKEY(RData):
    """Transaction key establishment (RFC 2930)."""

    __slots__ = ("algorithm", "inception", "expiration", "mode", "error", "key_data", "other_data")

    def __init__(
        self,
        algorithm: Name,
        inception: int,
        expiration: int,
        mode: int,
        error: int,
        key_data: bytes = b"",
        other_data: bytes = b"",
    ):
        self.algorithm = algorithm
        self.inception = inception
        self.expiration = expiration
        self.mode = mode
        self.error = error
        self.key_data = key_data
        self.other_data = other_data

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.algorithm, compress=False)
        writer.write_u32(self.inception)
        writer.write_u32(self.expiration)
        writer.write_u16(self.mode)
        writer.write_u16(self.error)
        writer.write_u16(len(self.key_data))
        writer.write(self.key_data)
        writer.write_u16(len(self.other_data))
        writer.write(self.other_data)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "TKEY":
        algorithm = reader.read_name()
        inception = reader.read_u32()
        expiration = reader.read_u32()
        mode = reader.read_u16()
        error = reader.read_u16()
        key_data = reader.read(reader.read_u16())
        other_data = reader.read(reader.read_u16())
        return cls(algorithm, inception, expiration, mode, error, key_data, other_data)

    def to_text(self) -> str:
        return (
            f"{self.algorithm.to_text()} {self.inception} {self.expiration} "
            f"{self.mode} {self.error} "
            f"{base64.b64encode(self.key_data).decode('ascii')}"
        )
