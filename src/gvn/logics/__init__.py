"""Built-in processing logics: service chaining, content tagging, network
separation, and opaque wrapping of foreign service headers."""

from .codes import ICN_CODE, NFV_CODE, OPAQUE_DEMO_CODE, VPN_CODE
from .nfv import (
    NfvChainData,
    ServiceChain,
    make_nfv_handler,
    nfv_encap,
    nfv_step,
)
from .icn import content_tag, icn_route, icn_tag, make_icn_handler
from .vpn import VpnData, make_vpn_handler, vpn_check, vpn_tag
from .opaque import wrap_opaque

__all__ = [
    "NFV_CODE",
    "ICN_CODE",
    "VPN_CODE",
    "OPAQUE_DEMO_CODE",
    "NfvChainData",
    "ServiceChain",
    "make_nfv_handler",
    "nfv_encap",
    "nfv_step",
    "content_tag",
    "icn_route",
    "icn_tag",
    "make_icn_handler",
    "VpnData",
    "make_vpn_handler",
    "vpn_check",
    "vpn_tag",
    "wrap_opaque",
]
