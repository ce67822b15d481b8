"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures without catching programming
errors.  Sub-hierarchies mirror the package layout: simulation kernel,
hardware models, network substrate, protocol stacks, and the INIC offload
framework.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


# --- simulation kernel -------------------------------------------------------
class SimulationError(ReproError):
    """Base class for discrete-event simulation kernel errors."""


class SimTimeError(SimulationError):
    """An event was scheduled in the past or with a negative delay."""


class ProcessError(SimulationError):
    """A simulated process misbehaved (e.g. yielded a non-event)."""


# --- hardware models ---------------------------------------------------------
class HardwareError(ReproError):
    """Base class for node-hardware model errors."""


class BusError(HardwareError):
    """Invalid bus transfer (zero bytes, detached device, ...)."""


class DMAError(HardwareError):
    """DMA descriptor or channel misuse."""


class MemoryModelError(HardwareError):
    """Invalid memory-hierarchy configuration or access description."""


# --- network substrate -------------------------------------------------------
class NetworkError(ReproError):
    """Base class for network substrate errors."""


class AddressError(NetworkError):
    """Unknown or malformed network address."""


class LinkError(NetworkError):
    """Link misconfiguration or use of a down link."""


class SwitchError(NetworkError):
    """Switch port/buffer misconfiguration."""


class PacketError(NetworkError):
    """Malformed packet or header."""


# --- protocols ---------------------------------------------------------------
class ProtocolError(ReproError):
    """Base class for protocol stack errors."""


class TransferAborted(ProtocolError):
    """A reliable transfer could not complete (too many retransmissions)."""


# --- INIC / offload framework -------------------------------------------------
class INICError(ReproError):
    """Base class for INIC and offload-framework errors."""


class FPGAResourceError(INICError):
    """A design does not fit the FPGA fabric (CLB/BRAM budget exceeded)."""


class ConfigurationError(INICError):
    """Invalid offload design or card configuration."""


class OffloadError(INICError):
    """Runtime failure in an offloaded operation."""


# --- configuration documents ---------------------------------------------------
class ConfigError(ReproError):
    """A malformed config document or unknown config field.

    The root of the config-convention hierarchy: every
    ``to_json``/``from_json`` surface (the INIC protocol config,
    fault and campaign specs) rejects unknown keys
    with a :class:`ConfigError` subclass, so callers can catch the
    whole family here.
    """


# --- fault injection -----------------------------------------------------------
class FaultConfigError(ConfigError):
    """Invalid fault-injection specification (bad rate, window, scale)."""


# --- applications / harness ---------------------------------------------------
class ApplicationError(ReproError):
    """Base class for application-level errors (FFT, sort)."""
