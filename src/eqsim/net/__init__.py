from .bucket import TokenBucket
from .connection import (
    LOCAL_PIPE,
    RSP_MULTICAST,
    TCP,
    ConnectError,
    Connection,
    ConnectionClosedError,
    ConnectionDescription,
    PipeConnection,
    RateLimitedConnection,
    TransportError,
    WallClockBucket,
    connect,
    listen,
)
from .node import CMD_REPLY, Command, LocalNode, RemoteError, RemoteNode
from .rsp import (
    Datagram,
    DatagramType,
    EndpointClosedError,
    MemberLostError,
    RspConfig,
    RspError,
    RspJoinError,
    RspMember,
    RspStats,
    expand_sequence,
    validate_nack_ranges,
)
from .simnet import (
    RspSimEndpoint,
    RspSimGroup,
    SimStallError,
    SimTransport,
)
