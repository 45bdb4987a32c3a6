from .base import (
    VERSION_HEAD,
    VERSION_NONE,
    VERSION_OLDEST,
    ChangeType,
    DistributedObject,
    NotMasterError,
    ObjectError,
    SlaveDisconnectedError,
    UnknownObjectError,
    VersionError,
)
from .cache import InstanceCache
from .collectives import (
    BarrierError,
    BarrierMaster,
    BarrierSlave,
    DistributedQueue,
    ObjectMap,
    QueueConsumer,
    QueueError,
)
from .manager import KIND_DELTA, KIND_INSTANCE, MulticastHub, ObjectManager
from .serializable import BIT_ATTACHED, DIRTY_ALL, DIRTY_NONE, DirtyMaskError, Serializable

