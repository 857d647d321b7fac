"""The 22-joint body skeleton and its canonical rest pose.

Joint order follows the unified body representation shared by all curated
motion in this package; index constants below are the single source of
truth for every module that touches joints. Up axis is +y and the rest
pose faces +z with arms out along +/-x (left side on +x).
"""

from __future__ import annotations

import numpy as np

N_JOINTS = 22

JOINT_NAMES = [
    "pelvis",
    "l_hip",
    "r_hip",
    "spine1",
    "l_knee",
    "r_knee",
    "spine2",
    "l_ankle",
    "r_ankle",
    "spine3",
    "l_foot",
    "r_foot",
    "neck",
    "l_collar",
    "r_collar",
    "head",
    "l_shoulder",
    "r_shoulder",
    "l_elbow",
    "r_elbow",
    "l_wrist",
    "r_wrist",
]

PARENTS = [-1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 12, 13, 14, 16, 17, 18, 19]

PELVIS = 0
L_ANKLE, R_ANKLE = 7, 8
L_FOOT, R_FOOT = 10, 11
NECK = 12
HEAD = 15
L_SHOULDER, R_SHOULDER = 16, 17
L_WRIST, R_WRIST = 20, 21
L_HIP, R_HIP = 1, 2

# Feet joints carried in feature contact flags, in flag order.
CONTACT_JOINTS = [L_ANKLE, L_FOOT, R_ANKLE, R_FOOT]

# Offsets from parent joint in the rest pose (meters); the pelvis offset is
# its world position, so chaining offsets down the tree gives the pose.
REST_OFFSETS = np.array(
    [
        [0.00, 0.94, 0.00],  # pelvis
        [0.10, -0.05, 0.00],  # l_hip
        [-0.10, -0.05, 0.00],  # r_hip
        [0.00, 0.12, 0.00],  # spine1
        [0.00, -0.40, 0.00],  # l_knee
        [0.00, -0.40, 0.00],  # r_knee
        [0.00, 0.13, 0.00],  # spine2
        [0.00, -0.40, 0.00],  # l_ankle
        [0.00, -0.40, 0.00],  # r_ankle
        [0.00, 0.05, 0.00],  # spine3
        [0.00, -0.06, 0.13],  # l_foot
        [0.00, -0.06, 0.13],  # r_foot
        [0.00, 0.20, 0.00],  # neck
        [0.07, 0.12, 0.00],  # l_collar
        [-0.07, 0.12, 0.00],  # r_collar
        [0.00, 0.12, 0.00],  # head
        [0.10, 0.03, 0.00],  # l_shoulder
        [-0.10, 0.03, 0.00],  # r_shoulder
        [0.26, 0.00, 0.00],  # l_elbow
        [-0.26, 0.00, 0.00],  # r_elbow
        [0.25, 0.00, 0.00],  # l_wrist
        [-0.25, 0.00, 0.00],  # r_wrist
    ],
    dtype=np.float64,
)

# World-space rest joint positions, (22, 3): the offsets chained down the
# tree, each parent placed before its children.
REST_POSE = np.zeros((N_JOINTS, 3))
REST_POSE[0] = REST_OFFSETS[0]
for _i in range(1, N_JOINTS):
    REST_POSE[_i] = REST_POSE[PARENTS[_i]] + REST_OFFSETS[_i]

# Unit rest-pose direction of the bone into each non-root joint, (21, 3).
REST_DIRS = REST_OFFSETS[1:] / np.linalg.norm(REST_OFFSETS[1:], axis=1, keepdims=True)

for _a in (REST_OFFSETS, REST_POSE, REST_DIRS):
    _a.flags.writeable = False
